// Crash-safe persistence primitives shared by every on-disk artifact
// (AVIDX003 indexes and spill runs, AVRULESET2 rule sets, CSV lakes).
//
// The durability contract (docs/ARCHITECTURE.md, "Durability"):
//
//   * Atomic visibility. A writer never touches the target path until the
//     whole payload is on disk: bytes stream into a same-directory temp
//     file, the file is fsync'd, then rename(2)'d onto the target, then the
//     parent directory is fsync'd. A reader — even one racing a crash —
//     observes either the complete previous file or the complete new one,
//     never a torn or partial write, and a failed save leaves the previous
//     file untouched.
//
//   * Checked integrity. Checksummed formats end in a fixed 24-byte trailer
//     frame covering every payload byte, so a file that somehow IS torn
//     (device loss, manual truncation, bit rot) is rejected at load time
//     with kCorruption instead of being half-loaded.
//
// Trailer frame (appended after the payload; all fields little-endian):
//
//   offset  size  field
//   +0      8     u64 payload length (bytes before the trailer)
//   +8      8     u64 PolyHash64 over payload bytes [0, payload length)
//   +16     8     magic "AVTRAIL1"
//
// Verification order: size >= 24, trailing magic, payload length ==
// file size - 24, then the payload hash. Formats opt into the trailer by
// bumping their leading magic (AVIDX002 -> AVIDX003, ...), so loaders can
// keep accepting old untrailed files: the leading magic decides whether a
// trailer is required (write-new-only, read-compat).
//
// Every durable syscall the writer issues goes through the FileOps seam
// (common/file_ops.h), which is how the contract above is *checked*: the
// crash-state model checker (src/testing/crashmc.h) records the exact
// open/write/fsync/rename/fsync-dir sequence and enumerates every
// POSIX-legal post-crash disk state, and the unit tests inject syscall
// failures through the same seam. Production builds pay one atomic load
// per syscall for this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/hash.h"
#include "common/status.h"

namespace av {

/// Trailing-frame magic ("AVTRAIL1") and total trailer size in bytes.
inline constexpr char kTrailerMagic[8] = {'A', 'V', 'T', 'R', 'A', 'I', 'L',
                                          '1'};
inline constexpr size_t kTrailerBytes = 24;

/// Incremental PolyHash64: digest() equals PolyHash64 of the concatenation
/// of every Update() fragment, for any fragment boundaries (the hash is a
/// per-byte fold, so a writer may checksum whole flushed buffers instead of
/// each appended fragment).
class PolyHasher {
 public:
  void Update(const void* data, size_t n) {
    Update(std::string_view(static_cast<const char*>(data), n));
  }
  void Update(std::string_view s) { h_ = PolyHashUpdate(h_, s); }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = kPolySeed;
};

/// Write policy of one durable save.
struct DurableWriteOptions {
  /// Append the checksum trailer frame at Commit (binary artifact formats).
  /// Off for interchange formats (CSV) that still want atomic visibility.
  bool checksum = true;
  /// fsync the file before rename and the parent directory after. Off only
  /// for ephemeral files (spill runs in a temp dir): a crash loses them
  /// anyway, but rename-atomicity and the trailer still guarantee a run is
  /// never observed half-written.
  bool sync = true;
};

/// Atomic, optionally-checksummed file writer.
///
///   DurableFileWriter w;
///   AV_RETURN_NOT_OK(w.Open(path));
///   AV_RETURN_NOT_OK(w.Append(...));   // any number of times
///   AV_RETURN_NOT_OK(w.Commit());      // trailer + fsync + rename + fsync
///
/// Until Commit() returns OK the target path is untouched; destruction (or
/// Abandon()) before a successful Commit removes the temp file. One writer
/// is single-use: Open may be called once.
///
/// Appends collect in a 256 KiB buffer that is written with one write(2)
/// when the next append would fill it; the checksum folds each buffer as
/// it is flushed, so an append that fits is a plain copy.
class DurableFileWriter {
 public:
  /// Size of the write buffer: one write(2) per 256 KiB of payload.
  static constexpr size_t kBufferBytes = 256 * 1024;

  DurableFileWriter() = default;
  ~DurableFileWriter() { Abandon(); }
  DurableFileWriter(const DurableFileWriter&) = delete;
  DurableFileWriter& operator=(const DurableFileWriter&) = delete;

  /// Creates `<target>.<pid>.<seq>.avtmp` next to the target (same
  /// filesystem, so the rename is atomic). Fails with kIOError when the
  /// directory is missing, unwritable, or the temp name cannot be created.
  Status Open(const std::string& target, DurableWriteOptions opts = {});

  /// Buffered append of payload bytes (checksummed when enabled).
  Status Append(const void* data, size_t n) {
    if (fd_ >= 0 && n < kBufferBytes - buffered_) {
      std::memcpy(buffer_.get() + buffered_, data, n);
      buffered_ += n;
      payload_bytes_ += n;
      return Status::OK();
    }
    return AppendAndFlush(data, n);
  }
  Status Append(std::string_view s) { return Append(s.data(), s.size()); }
  /// Appends the raw in-memory representation of a trivially-copyable value
  /// (the native little-endian convention of every AV format).
  template <typename T>
  Status AppendPod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Append(&v, sizeof(v));
  }

  /// Payload bytes appended so far (excludes the trailer).
  uint64_t payload_bytes() const { return payload_bytes_; }
  /// Final file size after Commit: payload plus trailer (if enabled).
  uint64_t committed_bytes() const {
    return payload_bytes_ + (opts_.checksum ? kTrailerBytes : 0);
  }

  /// Appends the trailer (if enabled), flushes, fsyncs, closes, renames the
  /// temp file onto the target and fsyncs the parent directory. On any
  /// failure the temp file is removed and the target stays untouched.
  Status Commit();

  /// Drops the write: closes and removes the temp file, target untouched.
  /// No-op after Commit or a previous Abandon.
  void Abandon();

 private:
  /// Append's slow path: the bytes do not fit in the buffer (or the writer
  /// is not open).
  Status AppendAndFlush(const void* data, size_t n);
  Status WriteRaw(const void* data, size_t n);
  /// Checksums and writes the buffered payload bytes.
  Status FlushBuffer();

  int fd_ = -1;
  std::string target_;
  std::string temp_path_;
  /// kBufferBytes of payload plus room for the trailer, which Commit sends
  /// in the same write(2) as the last payload bytes.
  std::unique_ptr<char[]> buffer_;
  size_t buffered_ = 0;
  DurableWriteOptions opts_;
  PolyHasher hasher_;
  uint64_t payload_bytes_ = 0;
  bool committed_ = false;
};

/// A read-only descriptor of a regular file, closed on destruction.
class RegularFile {
 public:
  RegularFile() = default;
  RegularFile(const RegularFile&) = delete;
  RegularFile& operator=(const RegularFile&) = delete;
  ~RegularFile();

  /// kIOError unless `path` opens and is a regular file: a directory opens
  /// too, and an ifstream reports its size as 2^63 - 1, which a reader
  /// would then try to allocate.
  Status Open(const std::string& path);

  size_t size() const { return size_; }  ///< size at Open

  /// Reads bytes [0, size()) into `dst`, 1 MiB at a time on the
  /// ParallelFor helpers (common/parallel_for.h). A file that ends before
  /// them (it shrank since Open) or a failed read is a kIOError.
  Status ReadAll(char* dst) const;

 private:
  int fd_ = -1;
  size_t size_ = 0;
  std::string path_;
};

/// Verifies the trailer frame of an in-memory file image. Returns the
/// payload length (always `data.size() - 24` when OK); kCorruption when the
/// frame is missing, truncated, inconsistent, or the checksum mismatches.
/// A payload of more than 1 MiB is hashed in 1 MiB pieces on the
/// ParallelFor helpers (common/parallel_for.h).
Result<uint64_t> VerifyTrailer(std::string_view data);

/// A whole file in memory.
struct FileImage {
  std::unique_ptr<char[]> data;
  size_t size = 0;
  std::string_view view() const { return {data.get(), size}; }
};

/// Reads a whole file in 1 MiB pieces on the ParallelFor helpers
/// (common/parallel_for.h), into a buffer that is not zeroed first.
/// kIOError when it cannot be opened or read, or is not a regular file.
Result<FileImage> ReadFileImage(const std::string& path);

/// Slurps a whole file into a string, read as ReadFileImage reads. kIOError
/// when it cannot be opened or read, or is not a regular file.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace av
