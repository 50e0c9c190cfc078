// Crash-state model checker for the persistence layer.
//
// The SIGKILL chaos tests (tests/chaos_test.cc) *sample* crash timing: a
// bug that only manifests in one specific write/fsync/rename ordering can
// survive any number of random kills. This checker *enumerates* instead.
//
//   1. Record. A save runs with an OpRecorder installed as the FileOps
//      table (common/file_ops.h): every durable operation the writer emits
//      — open-temp, write, fsync-file, rename, unlink, fsync-dir — is
//      logged, with write payloads, while the real syscalls still execute
//      (so the caller can capture each committed generation's bytes).
//
//   2. Enumerate. For every crash point (the crash lands after any prefix
//      of the op log) the checker generates every disk state POSIX permits:
//
//        * File data is durable up to the file's last fsync; writes after
//          it may be applied as any in-order prefix, and the first
//          unapplied write may additionally be torn at representative byte
//          offsets (1, half, trailer boundaries, n-1). Later-without-
//          earlier "holes" are excluded: the model matches a
//          metadata-journaling filesystem (ext4 ordered), not raw device
//          reordering.
//        * Directory metadata (temp-file creation, rename, unlink) is
//          durable up to the directory's last fsync-dir; pending entries
//          may be applied as any in-order prefix of that directory's op
//          sequence. In particular a rename WITHOUT a parent-dir fsync may
//          be lost — and, crucially, a rename may be applied while
//          un-fsynced data of the renamed file is still missing, which is
//          exactly the state a rename-before-fsync bug exposes.
//
//      Duplicate states (different choices, same bytes on disk) are
//      deduplicated before checking.
//
//   3. Check. Each unique state is materialized into a fresh directory and
//      the REAL recovery path runs against it. Invariants:
//
//        * Complete generations only: a file visible at the target path
//          must be byte-identical to some committed generation, and then
//          the format loader must accept it.
//        * Durability: once a save's parent-dir fsync is in the crashed
//          prefix, the target must exist and be that generation or newer
//          (fsync'd formats; spill runs opt out — they are ephemeral).
//        * No torn acceptance: bytes that match no committed generation
//          must be impossible (fsync'd formats) or rejected by the loader
//          (checksummed-but-unsynced writes, e.g. spill runs).
//        * No debris promotion: leftover *.avtmp files never affect the
//          recovery of the target (and an optional per-state directory
//          check can assert directory-level loaders skip them).
//
// Every violation carries a replayable trace: the full op log, the crash
// point, and the applied-op subset, in a text format MaterializeTrace can
// turn back into the exact offending directory — failures are
// deterministic reproducers, not dice rolls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/file_ops.h"
#include "common/status.h"

namespace av {
namespace crashmc {

/// One durable operation emitted by a recorded save.
enum class OpKind {
  kCreate,     ///< open-temp (O_CREAT|O_EXCL) — adds a directory entry
  kWrite,      ///< write(2) — appends `data` to the file
  kFsyncFile,  ///< fsync(2) — all prior writes to this file become durable
  kClose,      ///< close(2) — no durability effect (kept for readable traces)
  kRename,     ///< rename(2) `path` -> `path2` — a directory-metadata op
  kUnlink,     ///< unlink(2) — a directory-metadata op
  kFsyncDir,   ///< fsync of directory `path` — prior metadata ops durable
};

struct DiskOp {
  OpKind kind;
  std::string path;   ///< file path, or the directory for kFsyncDir
  std::string path2;  ///< rename destination (kRename only)
  std::string data;   ///< write payload (kWrite only)
};

const char* OpKindName(OpKind kind);

/// FileOps implementation that forwards every call to RealFileOps() and
/// appends it to the log. Paths are recorded relative to `root` so traces
/// replay into any directory. Install with ScopedFileOps while running the
/// save under test; the save's real files still land in `root`, letting the
/// caller read back each committed generation's bytes.
class OpRecorder final : public FileOps {
 public:
  explicit OpRecorder(std::string root);

  const std::vector<DiskOp>& log() const { return log_; }
  /// Current log size — capture right after a successful save to mark its
  /// commit point (TargetSpec::commit_points).
  size_t op_count() const { return log_.size(); }

  int Open(const char* path, int flags, mode_t mode) override;
  ssize_t Write(int fd, const void* buf, size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const char* from, const char* to) override;
  int Unlink(const char* path) override;
  int FsyncDir(const char* dir) override;

 private:
  std::string Rel(const char* path) const;

  std::string root_;
  std::vector<DiskOp> log_;
  std::map<int, std::string> fd_paths_;
};

/// One save target and its recorded history.
struct TargetSpec {
  /// Target path, relative to the recording root.
  std::string path;
  /// Byte content of the target after each successful save, in save order.
  std::vector<std::string> generations;
  /// Log size (OpRecorder::op_count) right after each save returned OK —
  /// one entry per generation. A crash point at or past commit_points[i]
  /// means save i's whole op sequence (including its directory fsync, if it
  /// issues one) is in the crashed prefix.
  std::vector<size_t> commit_points;
  /// The real recovery path: must accept exactly the complete generations.
  std::function<Status(const std::string& file_path)> load;
};

struct CheckOptions {
  /// The format fsyncs (file + parent dir): completed saves must survive
  /// every crash, and a non-generation byte string at the target is itself
  /// a violation (it cannot happen under correct fsync/rename ordering).
  /// Off for ephemeral writes (spill runs, sync=false): a torn
  /// target may be visible after a crash, but the loader must reject it.
  bool durable = true;
  /// Hard cap on candidate states (pre-dedup) across all crash points; the
  /// CI budget. Exceeding it sets CheckReport::budget_exhausted instead of
  /// enumerating forever.
  size_t max_states = 1u << 20;
  /// Stop after this many violations (each one carries a full trace).
  size_t max_violations = 8;
  /// Optional per-state directory-level invariant (e.g. "the lake loader
  /// skips *.avtmp debris"); a non-OK status is a violation.
  std::function<Status(const std::string& dir)> dir_check;
};

struct Violation {
  std::string message;
  std::string trace;  ///< replayable (see FormatTrace / MaterializeTrace)
};

struct CheckReport {
  size_t crash_points = 0;      ///< prefixes of the op log enumerated
  size_t candidate_states = 0;  ///< states generated before deduplication
  size_t unique_states = 0;     ///< distinct disk states
  size_t states_checked = 0;    ///< unique states run through recovery
  bool budget_exhausted = false;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty() && !budget_exhausted; }
  std::string Summary() const;
};

/// Exhaustively enumerates the crash states of `log` and checks every
/// unique state against the recovery invariants of `targets`.
CheckReport CheckCrashStates(const std::vector<DiskOp>& log,
                             const std::vector<TargetSpec>& targets,
                             const CheckOptions& opts = {});

/// A fully-resolved candidate disk state: relative path -> file bytes.
using DiskStateFiles = std::map<std::string, std::string>;

/// Serializes one crash state as a replayable text trace: the op log, the
/// crash point, and the applied-op subset (per-directory applied prefix,
/// per-file applied pending writes + torn byte count).
std::string FormatTrace(const std::vector<DiskOp>& log, size_t crash_point,
                        const std::map<std::string, size_t>& dir_applied,
                        const std::map<std::string, std::pair<size_t, size_t>>&
                            file_applied,
                        const DiskStateFiles& files);

/// Reconstructs the exact disk state of a trace produced by FormatTrace.
Result<DiskStateFiles> MaterializeTrace(std::string_view trace);

/// Writes a disk state into `dir` (which must exist; files land at
/// `dir/<relative path>`).
Status ApplyStateToDir(const DiskStateFiles& files, const std::string& dir);

}  // namespace crashmc
}  // namespace av
