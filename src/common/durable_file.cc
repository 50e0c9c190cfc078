#include "common/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/file_ops.h"
#include "common/parallel_for.h"

namespace av {

namespace {

constexpr size_t kBufferBytes = DurableFileWriter::kBufferBytes;

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

/// fsyncs the directory containing `path`, making a just-renamed entry
/// durable. Best-effort on filesystems that reject directory fsync.
Status SyncParentDir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int rc = CurrentFileOps()->FsyncDir(dir.c_str());
  // EINVAL/ENOTSUP: the filesystem does not support directory fsync (some
  // network/overlay mounts); the rename itself is still atomic.
  if (rc != 0 && errno != EINVAL && errno != ENOTSUP) {
    return Status::IOError(ErrnoMessage("cannot fsync dir", dir));
  }
  return Status::OK();
}

/// The unit of a pieced checksum or read: one ParallelFor index each.
constexpr size_t kPieceBytes = size_t{1} << 20;

/// Pieces that cover `bytes`: at least one, the last possibly short.
size_t Pieces(size_t bytes) {
  return std::max<size_t>(1, (bytes + kPieceBytes - 1) / kPieceBytes);
}

/// PolyHash64(s), hashed in kPieceBytes pieces on the ParallelFor helpers
/// and folded in order (PolyPow in common/hash.h). A string of one piece or
/// less is hashed on the calling thread.
uint64_t PiecedPolyHash64(std::string_view s) {
  const size_t pieces = Pieces(s.size());
  std::vector<uint64_t> partial(pieces);
  ParallelFor(pieces, pieces, [&](size_t i) {
    partial[i] = PolyHashUpdate(0, s.substr(i * kPieceBytes, kPieceBytes));
  });
  const uint64_t full_piece = PolyPow(kPieceBytes);
  uint64_t h = kPolySeed;
  for (size_t i = 0; i + 1 < pieces; ++i) h = h * full_piece + partial[i];
  return h * PolyPow(s.size() - (pieces - 1) * kPieceBytes) + partial.back();
}

/// Reads the `n` bytes at `offset` of `fd` into `dst`, retrying on EINTR.
/// Returns 0, the errno of a failed pread, or -1 when the file ends first.
/// Allocates nothing, so it may run on a ParallelFor helper.
int PreadFully(int fd, uint64_t offset, char* dst, size_t n) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, dst, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return got < 0 ? errno : -1;
    dst += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return 0;
}

Status ReadError(const std::string& path, int err) {
  return Status::IOError("cannot read " + path + ": " +
                         (err > 0 ? std::strerror(err)
                                  : "the file shrank while it was read"));
}

}  // namespace

RegularFile::~RegularFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status RegularFile::Open(const std::string& path) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return Status::IOError(ErrnoMessage("cannot open", path));
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError(ErrnoMessage("cannot stat", path));
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::IOError("cannot read " + path + ": not a regular file");
  }
  size_ = static_cast<size_t>(st.st_size);
  return Status::OK();
}

Status RegularFile::ReadAll(char* dst) const {
  const size_t pieces = Pieces(size_);
  std::vector<int> errors(pieces);
  ParallelFor(pieces, pieces, [&](size_t i) {
    const size_t off = i * kPieceBytes;
    errors[i] = PreadFully(fd_, off, dst + off,
                           std::min(size_, off + kPieceBytes) - off);
  });
  for (const int err : errors) {
    if (err != 0) return ReadError(path_, err);
  }
  return Status::OK();
}

Status DurableFileWriter::Open(const std::string& target,
                               DurableWriteOptions opts) {
  if (fd_ >= 0 || committed_) return Status::Internal("writer already used");
  target_ = target;
  opts_ = opts;
  // Pid + process-wide counter make concurrent savers of one target (and of
  // different targets in one directory) collision-free; O_EXCL catches the
  // leftovers of a crashed predecessor, retried with the next counter value.
  static std::atomic<uint64_t> counter{0};
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
    std::string candidate = target + "." + std::to_string(::getpid()) + "." +
                            std::to_string(n) + ".avtmp";
    const int fd = CurrentFileOps()->Open(
        candidate.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd >= 0) {
      fd_ = fd;
      temp_path_ = std::move(candidate);
      buffer_ = std::make_unique<char[]>(kBufferBytes + kTrailerBytes);
      return Status::OK();
    }
    if (errno != EEXIST) {
      return Status::IOError(ErrnoMessage("cannot create temp file", candidate));
    }
  }
  return Status::IOError("cannot create temp file next to " + target);
}

Status DurableFileWriter::WriteRaw(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = CurrentFileOps()->Write(fd_, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed for", temp_path_));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status DurableFileWriter::FlushBuffer() {
  if (buffered_ == 0) return Status::OK();
  if (opts_.checksum) hasher_.Update(buffer_.get(), buffered_);
  AV_RETURN_NOT_OK(WriteRaw(buffer_.get(), buffered_));
  buffered_ = 0;
  return Status::OK();
}

Status DurableFileWriter::AppendAndFlush(const void* data, size_t n) {
  if (fd_ < 0) return Status::Internal("durable writer not open");
  // The inline path took every append that leaves the buffer short of
  // full; this one fills it, so the buffer goes out first.
  AV_RETURN_NOT_OK(FlushBuffer());
  payload_bytes_ += n;
  if (n >= kBufferBytes) {  // skip the copy
    if (opts_.checksum) hasher_.Update(data, n);
    return WriteRaw(data, n);
  }
  std::memcpy(buffer_.get(), data, n);
  buffered_ = n;
  return Status::OK();
}

Status DurableFileWriter::Commit() {
  if (fd_ < 0) return Status::Internal("durable writer not open");
  if (opts_.checksum) {
    // The unflushed tail is the last of the payload. The trailer (payload
    // length, payload hash, magic) covers the payload, it is not part of
    // it: it rides unhashed in the same final write.
    hasher_.Update(buffer_.get(), buffered_);
    const uint64_t len = payload_bytes_;
    const uint64_t digest = hasher_.digest();
    char* const t = buffer_.get() + buffered_;
    std::memcpy(t, &len, sizeof(len));
    std::memcpy(t + 8, &digest, sizeof(digest));
    std::memcpy(t + 16, kTrailerMagic, sizeof(kTrailerMagic));
    buffered_ += kTrailerBytes;
  }
  Status st = WriteRaw(buffer_.get(), buffered_);
  buffered_ = 0;
  FileOps* const ops = CurrentFileOps();
  if (st.ok() && opts_.sync && ops->Fsync(fd_) != 0) {
    st = Status::IOError(ErrnoMessage("cannot fsync", temp_path_));
  }
  if (ops->Close(fd_) != 0 && st.ok()) {
    st = Status::IOError(ErrnoMessage("cannot close", temp_path_));
  }
  fd_ = -1;
  if (st.ok() && ops->Rename(temp_path_.c_str(), target_.c_str()) != 0) {
    st = Status::IOError("cannot rename " + temp_path_ + " -> " + target_ +
                         ": " + std::strerror(errno));
  }
  if (!st.ok()) {
    ops->Unlink(temp_path_.c_str());  // failed save: target stays untouched
    committed_ = true;                // writer is spent either way
    return st;
  }
  committed_ = true;
  if (opts_.sync) AV_RETURN_NOT_OK(SyncParentDir(target_));
  return Status::OK();
}

void DurableFileWriter::Abandon() {
  if (fd_ >= 0) {
    FileOps* const ops = CurrentFileOps();
    ops->Close(fd_);
    fd_ = -1;
    ops->Unlink(temp_path_.c_str());
  }
  committed_ = true;
}

Result<uint64_t> VerifyTrailer(std::string_view data) {
  if (data.size() < kTrailerBytes) {
    return Status::Corruption("file too small for checksum trailer");
  }
  const char* const tail = data.data() + data.size() - kTrailerBytes;
  if (std::memcmp(tail + 16, kTrailerMagic, sizeof(kTrailerMagic))) {
    return Status::Corruption("missing checksum trailer magic");
  }
  uint64_t len = 0, digest = 0;
  std::memcpy(&len, tail, sizeof(len));
  std::memcpy(&digest, tail + 8, sizeof(digest));
  if (len != data.size() - kTrailerBytes) {
    return Status::Corruption("checksum trailer length mismatch");
  }
  if (PiecedPolyHash64(data.substr(0, len)) != digest) {
    return Status::Corruption("payload checksum mismatch");
  }
  return len;
}

Result<FileImage> ReadFileImage(const std::string& path) {
  RegularFile file;
  AV_RETURN_NOT_OK(file.Open(path));
  FileImage image;
  // Default-initialized: the read is the first write to every page.
  image.data.reset(new char[file.size()]);
  image.size = file.size();
  AV_RETURN_NOT_OK(file.ReadAll(image.data.get()));
  return image;
}

Result<std::string> ReadFileToString(const std::string& path) {
  RegularFile file;
  AV_RETURN_NOT_OK(file.Open(path));
  std::string data(file.size(), '\0');
  AV_RETURN_NOT_OK(file.ReadAll(data.data()));
  return data;
}

}  // namespace av
