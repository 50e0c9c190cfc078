// Link seam under the durable persistence layer: every syscall a
// DurableFileWriter issues (open-temp, write, fsync, close, rename, unlink,
// parent-dir fsync) is routed through the process-wide FileOps table.
//
// Production uses RealFileOps() — thin wrappers over the raw syscalls with
// zero added state. Tests swap the table with ScopedFileOps to
//
//   * record the exact durable-operation sequence a save emits (the input
//     of the crash-state model checker, src/testing/crashmc.h), and
//   * inject errors (a failing rename, an EINVAL directory fsync) into
//     paths no real filesystem exercises on demand.
//
// The override is process-global and unsynchronized by design: it is a
// testing seam, installed while no other thread is writing files. Reads
// (ReadFileImage, ReadFileToString and the loads built on them) do not
// route through the seam — crash states are materialized as real files and
// re-read by the real load paths.
#pragma once

#include <sys/types.h>

#include <cstddef>

namespace av {

/// Virtual syscall table for durable writes. Methods mirror the POSIX
/// calls 1:1 — same arguments, same return conventions (errno on failure) —
/// so an implementation can forward, record, or fail each one.
class FileOps {
 public:
  virtual ~FileOps() = default;

  /// open(2). Used for temp-file creation (O_CREAT | O_EXCL).
  virtual int Open(const char* path, int flags, mode_t mode) = 0;
  /// write(2). May write fewer than `n` bytes, exactly like the syscall.
  virtual ssize_t Write(int fd, const void* buf, size_t n) = 0;
  /// fsync(2) of a file descriptor opened via Open.
  virtual int Fsync(int fd) = 0;
  /// close(2).
  virtual int Close(int fd) = 0;
  /// rename(2).
  virtual int Rename(const char* from, const char* to) = 0;
  /// unlink(2).
  virtual int Unlink(const char* path) = 0;
  /// Opens `dir` and fsyncs it (making renamed/created entries durable).
  /// Returns 0 on success, -1 with errno set otherwise — implementations
  /// get the whole open+fsync+close sequence as ONE op so recorders see a
  /// single fsync-dir event and injectors can fail it atomically.
  virtual int FsyncDir(const char* dir) = 0;
};

/// The passthrough implementation: raw syscalls, no state.
FileOps& RealFileOps();

/// The table durable writers currently use (RealFileOps unless overridden).
FileOps* CurrentFileOps();

/// RAII override of the process-wide table; restores the previous table on
/// destruction. Install only while no other thread performs durable writes.
class ScopedFileOps {
 public:
  explicit ScopedFileOps(FileOps* ops);
  ~ScopedFileOps();
  ScopedFileOps(const ScopedFileOps&) = delete;
  ScopedFileOps& operator=(const ScopedFileOps&) = delete;

 private:
  FileOps* prev_;
};

}  // namespace av
