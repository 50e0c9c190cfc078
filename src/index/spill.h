// Spill runs: the on-disk form of one chunk-local PatternIndex during an
// out-of-core BuildIndex. A run is an AVIDX003 index file, written by the
// index's own writer without the fsync (docs/FILE_FORMATS.md), so its
// entries are sorted by canonical pattern string and the reduce phase
// becomes a k-way streaming merge over run cursors instead of an in-memory
// shard merge. Determinism contract: the merge pops equal names in
// ascending run (= chunk) order and folds `sum_impurity` one run at a time,
// reproducing exactly the in-memory reduce's left-fold over chunk-local
// partial sums — so the merged index saves byte-identical AVIDX003 output.
// When the fan-in is bounded, intermediate passes cascade from the left
// (fold the first k runs, repeat — balanced run trees would re-associate
// the sums and change the bytes).
//
// Durability: no fsync (runs are ephemeral), but the checksum trailer and
// the atomic rename keep a run file complete or absent. A run lives only
// inside the temp directory of the build that wrote it, so a cursor reads
// trailed AVIDX003 alone: not the untrailed AVIDX002 a Load still accepts,
// nor any older run format.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.h"
#include "common/status.h"
#include "index/pattern_index.h"

namespace av {

/// One spill-run entry; field-for-field the AVIDX003 entry.
struct SpillEntry {
  uint64_t key = 0;          ///< PolyHash64(name), validated on read
  std::string name;          ///< canonical pattern string
  double sum_impurity = 0;   ///< chunk-local impurity partial sum
  uint32_t columns = 0;      ///< chunk-local coverage partial count
};

/// Spills one chunk-local index as a sorted run: the bytes `chunk.Save`
/// writes, without the fsync. Returns bytes written.
Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                               const std::string& path);

/// Sequential cursor over one run. Open verifies the checksum trailer over
/// the whole payload (streamed, constant memory) before it frames any
/// entry, then the magic and the size-clamped entry count; Next frames
/// each entry as PatternIndex::Load does and checks it (length cap, key ==
/// PolyHash64(name), strictly ascending names, truncation, a count that
/// under-reports) — a corrupt run is kCorruption, never half-read. (A
/// checksum only proves the file is what its writer wrote, not that the
/// writer was ours.)
class SpillRunCursor {
 public:
  /// File bytes a cursor holds at once; an entry larger than this grows the
  /// window to its size. Fits the out-of-core build's memory estimate of
  /// 64 KiB per open run (index/indexer.cc), which sets its merge fan-in.
  static constexpr size_t kWindowBytes = 32 * 1024;

  Status Open(const std::string& path);
  /// Opens over an in-memory file image (the fuzz-harness entry point),
  /// which is then the window.
  Status OpenBuffer(std::string data);

  /// True while entry() is readable; false once the run is exhausted.
  bool valid() const { return valid_; }
  const SpillEntry& entry() const { return entry_; }

  /// Advances to the next entry (invalidates entry()).
  Status Next();

 private:
  /// Shared tail of Open/OpenBuffer once the trailer has verified the
  /// payload: checks the header and frames the first entry.
  Status Start();
  /// Slides the unread bytes to the window's front and reads on after them,
  /// first growing the window to max(need, kWindowBytes) if it is smaller.
  Status Refill(size_t need);
  std::string_view Unread() const {
    return std::string_view(window_).substr(pos_, filled_ - pos_);
  }

  RegularFile file_;        ///< the run (Open only)
  std::string path_;
  std::string window_;      ///< payload bytes [read_ - filled_, read_)
  size_t pos_ = 0;          ///< window offset of the next entry
  size_t filled_ = 0;       ///< window bytes that hold payload
  uint64_t read_ = 0;       ///< payload bytes read into the window so far
  uint64_t payload_ = 0;    ///< payload bytes the trailer covers
  uint64_t remaining_ = 0;  ///< entries left to frame
  SpillEntry entry_;
  bool valid_ = false;
};

/// K-way streaming merge over the runs at `paths`, which must be in
/// ascending chunk order. Emits fully-merged entries in ascending name
/// order; a key present in several runs has its sums folded in run order
/// (see the determinism contract above). Memory: one cursor per run.
Status MergeSpillRuns(std::span<const std::string> paths,
                      const std::function<void(SpillEntry&&)>& emit);

/// Bounded fan-in merge: while more than `max_fanin` runs remain, the first
/// `max_fanin` runs are folded into one in-memory index, which is written
/// back as one run under `tmp_dir` (left-cascade — see the determinism note
/// above); the final pass streams into `emit`. `max_fanin` < 2 is clamped
/// to 2. `merge_passes` (optional) reports the number of intermediate
/// passes (0 when one pass sufficed).
Status MergeSpillRunsBounded(std::vector<std::string> paths, size_t max_fanin,
                             const std::string& tmp_dir,
                             const std::function<void(SpillEntry&&)>& emit,
                             size_t* merge_passes = nullptr);

}  // namespace av
