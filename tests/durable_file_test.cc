// DurableFileWriter and trailer-frame verification: atomic visibility,
// checksum framing, temp-file hygiene, and the error paths (missing
// directory, unwritable directory, over-long temp name, truncation and bit
// rot at every byte).
#include "common/durable_file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_ops.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/temp_file.h"
#include "testing/crashmc.h"
#include "tests/test_util.h"

namespace av {
namespace {

namespace fs = std::filesystem;

using testutil::MakeTempDir;

/// Number of leftover `.avtmp` temp files under `dir` (must be zero after
/// any clean Commit/Abandon — only a SIGKILL may strand one).
size_t TempDebris(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".avtmp") != std::string::npos) ++n;
  }
  return n;
}

TEST(PolyHasherTest, MatchesOneShotHashForAnyChunking) {
  const std::string data =
      "the incremental digest must equal the one-shot fold over the "
      "concatenation, whatever the fragment boundaries";
  for (const size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{31}, size_t{1000}}) {
    PolyHasher h;
    for (size_t i = 0; i < data.size(); i += chunk) {
      h.Update(std::string_view(data).substr(i, chunk));
    }
    EXPECT_EQ(h.digest(), PolyHash64(data)) << "chunk " << chunk;
  }
  EXPECT_EQ(PolyHasher{}.digest(), PolyHash64(""));

  // 1 MiB of random bytes under random fragment sizes (many not a multiple
  // of the four-byte fold), checked against a byte-at-a-time fold: the
  // blocked evaluation must be the same polynomial, so no trailer changes.
  Rng rng(20261018);
  std::string big(1u << 20, '\0');
  for (char& c : big) c = static_cast<char>(rng.Next());
  uint64_t reference = kPolySeed;
  for (const char c : big) {
    reference = reference * kPolyMul + static_cast<unsigned char>(c);
  }
  ASSERT_EQ(PolyHash64(big), reference);
  for (int trial = 0; trial < 8; ++trial) {
    PolyHasher h;
    size_t fragments = 0;
    for (size_t i = 0; i < big.size(); ++fragments) {
      const size_t n = static_cast<size_t>(
          rng.Range(0, trial % 2 == 0 ? 13 : 70000));
      h.Update(std::string_view(big).substr(i, n));
      i += n;
    }
    EXPECT_EQ(h.digest(), reference)
        << "trial " << trial << ", " << fragments << " fragments";
  }
}

TEST(DurableFileTest, CommitProducesVerifiableTrailedFile) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("out.bin");
  DurableFileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Append("hello ").ok());
  ASSERT_TRUE(w.AppendPod(uint64_t{42}).ok());
  EXPECT_EQ(w.payload_bytes(), 14u);
  EXPECT_EQ(w.committed_bytes(), 14u + kTrailerBytes);
  // Atomic visibility: the target does not exist until Commit.
  EXPECT_FALSE(fs::exists(path));
  ASSERT_TRUE(w.Commit().ok());
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(fs::file_size(path), w.committed_bytes());
  EXPECT_EQ(TempDebris(dir.path()), 0u);

  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  auto in_memory = VerifyTrailer(*bytes);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_EQ(*in_memory, 14u);
  EXPECT_EQ(bytes->substr(0, 6), "hello ");
}

TEST(DurableFileTest, UncheckedModeWritesPayloadOnly) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("plain.csv");
  DurableFileWriter w;
  ASSERT_TRUE(w.Open(path, {.checksum = false, .sync = true}).ok());
  ASSERT_TRUE(w.Append("a,b\n1,2\n").ok());
  ASSERT_TRUE(w.Commit().ok());
  EXPECT_EQ(fs::file_size(path), 8u);  // no trailer
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "a,b\n1,2\n");
}

TEST(DurableFileTest, AbandonAndDestructorLeaveNothingBehind) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("never.bin");
  {
    DurableFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append("doomed").ok());
  }  // destructor abandons
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(TempDebris(dir.path()), 0u);

  DurableFileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Append("doomed too").ok());
  w.Abandon();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(TempDebris(dir.path()), 0u);
}

TEST(DurableFileTest, CommitReplacesPreviousFileCompletely) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("swap.bin");
  for (const std::string content : {"first generation", "second gen"}) {
    DurableFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append(content).ok());
    ASSERT_TRUE(w.Commit().ok());
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    auto len = VerifyTrailer(*bytes);
    ASSERT_TRUE(len.ok());
    EXPECT_EQ(bytes->substr(0, *len), content);
  }
  EXPECT_EQ(TempDebris(dir.path()), 0u);
}

TEST(DurableFileTest, OpenFailsInMissingDirectory) {
  DurableFileWriter w;
  const Status st = w.Open("/definitely/not/a/real/dir/file.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(DurableFileTest, OverlongTempNameFailsOpenAndLeavesTargetAlone) {
  // A ~250-char basename is itself creatable, but the temp-file suffix
  // pushes past NAME_MAX, so Open must fail cleanly — this is the
  // root-proof way to force a save failure (permission-based injection is
  // bypassed by CAP_DAC_OVERRIDE).
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File(std::string(250, 'x'));
  std::ofstream(path, std::ios::binary) << "previous contents";
  DurableFileWriter w;
  const Status st = w.Open(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "previous contents");
}

TEST(DurableFileTest, UnwritableDirectoryFailsOpen) {
  if (geteuid() == 0) {
    GTEST_SKIP() << "root bypasses directory permissions";
  }
  ScopedTempDir dir = MakeTempDir();
  fs::permissions(dir.path(), fs::perms::owner_read | fs::perms::owner_exec);
  DurableFileWriter w;
  const Status st = w.Open(dir.File("blocked.bin"));
  fs::permissions(dir.path(), fs::perms::owner_all);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(VerifyTrailerTest, RejectsEveryTruncationAndEveryBitFlip) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("golden.bin");
  DurableFileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Append("some payload the trailer must pin exactly").ok());
  ASSERT_TRUE(w.Commit().ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(VerifyTrailer(*bytes).ok());

  // Every proper prefix — the shape a torn write or truncation leaves —
  // must be rejected.
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    auto r = VerifyTrailer(std::string_view(*bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "cut " << cut;
  }
  // Every single-byte corruption — payload, length, digest, or magic —
  // must be rejected too.
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string mutated = *bytes;
    mutated[i] ^= 0x01;
    auto r = VerifyTrailer(mutated);
    EXPECT_FALSE(r.ok()) << "byte " << i;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "byte " << i;
  }
}

TEST(ReadFileToStringTest, MissingFileIsIOError) {
  auto r = ReadFileToString("/no/such/file/anywhere.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ReadFileToStringTest, DirectoryIsIOError) {
  // A directory opens for reading, but it has no bytes to read: a reader
  // that took its stream size (2^63 - 1) would try to allocate that. Every
  // file reader opens through RegularFile and says why it refuses.
  ScopedTempDir dir = MakeTempDir();
  for (const Status& st : {ReadFileToString(dir.path()).status(),
                           ReadFileImage(dir.path()).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
    EXPECT_NE(st.message().find("not a regular file"), std::string::npos)
        << st.ToString();
  }
}

/// The trailer checksum folded one byte at a time, as the format defines
/// it (durable_file.h).
uint64_t ByteAtATimeFold(std::string_view s) {
  uint64_t h = kPolySeed;
  for (const unsigned char c : s) h = h * kPolyMul + c;
  return h;
}

// VerifyTrailer hashes a payload of more than one 1 MiB piece in pieces on
// the ParallelFor helpers and folds the pieces in order; the file readers
// read in the same pieces. Whatever the size, the digest must be the
// byte-at-a-time fold, a one-bit flip in any piece must fail it, and both
// readers must return the file's bytes.
TEST(DurableFileTest, PiecedChecksumMatchesByteAtATimeFold) {
  constexpr size_t kPiece = size_t{1} << 20;  // src/common/durable_file.cc
  ScopedTempDir dir = MakeTempDir();
  Rng rng(18);
  for (const size_t size :
       {size_t{0}, size_t{1}, kPiece - 1, kPiece, kPiece + 1, 3 * kPiece + 7,
        8 * kPiece + 4099}) {
    SCOPED_TRACE("payload bytes " + std::to_string(size));
    std::string image(size, '\0');
    for (char& c : image) c = static_cast<char>(rng.Below(256));
    const uint64_t len = size;
    const uint64_t digest = ByteAtATimeFold(image);
    image.append(reinterpret_cast<const char*>(&len), sizeof(len));
    image.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
    image.append(kTrailerMagic, sizeof(kTrailerMagic));
    auto verified = VerifyTrailer(image);
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    EXPECT_EQ(*verified, size);

    const std::string path = dir.File("pieced.bin");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    auto read = ReadFileToString(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(*read == image);
    auto read_image = ReadFileImage(path);
    ASSERT_TRUE(read_image.ok()) << read_image.status().ToString();
    EXPECT_TRUE(read_image->view() == image);

    if (size == 0) continue;
    const size_t pieces = (size + kPiece - 1) / kPiece;
    for (const size_t piece : {size_t{0}, pieces / 2, pieces - 1}) {
      const size_t at = std::min(size - 1, piece * kPiece + rng.Below(kPiece));
      std::string flipped = image;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << rng.Below(8)));
      auto bad = VerifyTrailer(flipped);
      ASSERT_FALSE(bad.ok()) << "bit flipped at " << at;
      EXPECT_EQ(bad.status().message(), "payload checksum mismatch");
    }
  }
}

// ---------------------------------------------------------------------------
// Syscall-failure paths, reached through the FileOps seam (common/file_ops.h)
// — the same link seam the crash-state model checker records through.

/// Forwards to the real syscalls except for the ops told to fail.
class FailingFileOps final : public FileOps {
 public:
  int fsync_dir_errno = 0;  ///< non-zero: FsyncDir fails with this errno
  bool fail_rename = false;

  int Open(const char* path, int flags, mode_t mode) override {
    return RealFileOps().Open(path, flags, mode);
  }
  ssize_t Write(int fd, const void* buf, size_t n) override {
    return RealFileOps().Write(fd, buf, n);
  }
  int Fsync(int fd) override { return RealFileOps().Fsync(fd); }
  int Close(int fd) override { return RealFileOps().Close(fd); }
  int Rename(const char* from, const char* to) override {
    if (fail_rename) {
      errno = EXDEV;
      return -1;
    }
    return RealFileOps().Rename(from, to);
  }
  int Unlink(const char* path) override { return RealFileOps().Unlink(path); }
  int FsyncDir(const char* dir) override {
    if (fsync_dir_errno != 0) {
      errno = fsync_dir_errno;
      return -1;
    }
    return RealFileOps().FsyncDir(dir);
  }
};

/// The write(2) sizes of the writer's buffering rule for these appends:
/// the buffer goes out when an append would fill it, an append of a whole
/// buffer or more goes out on its own, and Commit sends the rest with the
/// trailer.
std::vector<size_t> ExpectedWrites(const std::vector<size_t>& appends,
                                   bool checksum) {
  constexpr size_t kBuffer = DurableFileWriter::kBufferBytes;
  std::vector<size_t> writes;
  size_t buffered = 0;
  for (const size_t n : appends) {
    if (buffered + n < kBuffer) {
      buffered += n;
      continue;
    }
    if (buffered > 0) writes.push_back(buffered);
    buffered = 0;
    if (n >= kBuffer) {
      writes.push_back(n);
    } else {
      buffered = n;
    }
  }
  if (checksum) buffered += kTrailerBytes;
  if (buffered > 0) writes.push_back(buffered);
  return writes;
}

TEST(DurableFileTest, RandomAppendSizesKeepWriteSizesAndChecksum) {
  // Append sizes from 0 to past the 256 KiB buffer: many small ones, some
  // that straddle a buffer boundary or exactly fill the buffer, and some
  // larger than the whole buffer. The checksum folds each flushed buffer
  // (and each oversized append); it must equal the one-shot hash, and the
  // write(2) sizes must follow the buffering rule exactly.
  constexpr size_t kBuffer = DurableFileWriter::kBufferBytes;
  const ScopedTempDir dir = MakeTempDir();
  Rng rng(20261019);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool checksum = trial % 4 != 3;
    std::vector<size_t> appends;
    size_t total = 0;
    size_t buffered = 0;  // what the writer holds unflushed
    while (total < 3 * kBuffer) {
      size_t n = 0;
      switch (rng.Below(6)) {
        case 0:
          n = 0;
          break;
        case 1:
        case 2:
          n = static_cast<size_t>(rng.Range(1, 100));
          break;
        case 3:
          n = static_cast<size_t>(rng.Range(1, 70000));
          break;
        case 4:  // within a few bytes of filling the buffer
          n = static_cast<size_t>(std::max<int64_t>(
              0, static_cast<int64_t>(kBuffer - buffered) + rng.Range(-2, 2)));
          break;
        default:
          n = static_cast<size_t>(rng.Range(kBuffer - 2, 2 * kBuffer + 3));
          break;
      }
      appends.push_back(n);
      total += n;
      buffered = buffered + n < kBuffer ? buffered + n : (n < kBuffer ? n : 0);
    }
    std::string payload(total, '\0');
    for (char& c : payload) c = static_cast<char>(rng.Next());

    const std::string path = dir.File("random.bin");
    crashmc::OpRecorder ops(dir.path());
    {
      ScopedFileOps scoped(&ops);
      DurableFileWriter w;
      ASSERT_TRUE(w.Open(path, {.checksum = checksum, .sync = false}).ok());
      size_t at = 0;
      for (const size_t n : appends) {
        ASSERT_TRUE(w.Append(payload.data() + at, n).ok());
        at += n;
      }
      EXPECT_EQ(w.payload_bytes(), total);
      ASSERT_TRUE(w.Commit().ok());
    }
    std::vector<size_t> writes;
    for (const crashmc::DiskOp& op : ops.log()) {
      if (op.kind == crashmc::OpKind::kWrite) writes.push_back(op.data.size());
    }
    EXPECT_EQ(writes, ExpectedWrites(appends, checksum));

    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    if (!checksum) {
      EXPECT_TRUE(*bytes == payload);
      continue;
    }
    auto len = VerifyTrailer(*bytes);
    ASSERT_TRUE(len.ok()) << len.status().message();
    ASSERT_EQ(*len, total);
    EXPECT_TRUE(std::string_view(*bytes).substr(0, total) == payload);
    uint64_t digest = 0;
    std::memcpy(&digest, bytes->data() + total + 8, sizeof(digest));
    EXPECT_EQ(digest, PolyHash64(payload));
  }
}

TEST(DurableFileTest, AppendBeforeOpenOrAfterCommitFails) {
  const ScopedTempDir dir = MakeTempDir();
  DurableFileWriter unopened;
  EXPECT_EQ(unopened.Append("x").code(), StatusCode::kInternal);
  DurableFileWriter w;
  ASSERT_TRUE(w.Open(dir.File("done.bin")).ok());
  ASSERT_TRUE(w.Append("x").ok());
  ASSERT_TRUE(w.Commit().ok());
  EXPECT_EQ(w.Append("y").code(), StatusCode::kInternal);
}

TEST(DurableFileTest, DirectoryFsyncUnsupportedIsBestEffort) {
  // EINVAL / ENOTSUP from the parent-dir fsync (network and overlay mounts
  // that cannot fsync directories): the commit must still succeed — the
  // rename is atomic, only the metadata-durability upgrade is unavailable.
  for (const int err : {EINVAL, ENOTSUP}) {
    ScopedTempDir dir = MakeTempDir();
    const std::string path = dir.File("out.bin");
    FailingFileOps ops;
    ops.fsync_dir_errno = err;
    ScopedFileOps scoped(&ops);
    DurableFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append("payload").ok());
    EXPECT_TRUE(w.Commit().ok()) << "errno " << err;
    EXPECT_TRUE(fs::exists(path));
    EXPECT_EQ(TempDebris(dir.path()), 0u);
  }
}

TEST(DurableFileTest, DirectoryFsyncHardErrorFailsCommitAfterRename) {
  // A real I/O error from the directory fsync is NOT tolerated: the caller
  // must learn the entry may not be durable. The rename has already
  // happened by then, so the target is visible (and well-formed) — the
  // failure is about durability, not atomicity.
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("out.bin");
  FailingFileOps ops;
  ops.fsync_dir_errno = EIO;
  ScopedFileOps scoped(&ops);
  DurableFileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Append("payload").ok());
  const Status st = w.Commit();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(VerifyTrailer(*bytes).ok());
  EXPECT_EQ(TempDebris(dir.path()), 0u);
}

TEST(DurableFileTest, FailedRenameLeavesOldTargetAndNoDebris) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("out.bin");
  // An existing committed generation that the failed save must not damage.
  {
    DurableFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append("old generation").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  auto old_bytes = ReadFileToString(path);
  ASSERT_TRUE(old_bytes.ok());

  FailingFileOps ops;
  ops.fail_rename = true;
  {
    ScopedFileOps scoped(&ops);
    DurableFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append("new generation, never visible").ok());
    const Status st = w.Commit();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    // Abandon after the failed Commit must be a safe no-op (the writer is
    // spent: fd closed, temp already unlinked).
    w.Abandon();
  }
  // The old generation is untouched and no temp file is stranded.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *old_bytes);
  EXPECT_EQ(TempDebris(dir.path()), 0u);
}

}  // namespace
}  // namespace av
