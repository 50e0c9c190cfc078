// Spill runs: the on-disk form of one chunk-local PatternIndex during an
// out-of-core BuildIndex. A run is an AVIDX003 index file, written by the
// index's own writer without the fsync (docs/FILE_FORMATS.md), and read back
// by PatternIndex::Load with all of Load's checks. The build's reduce folds
// the runs into the global index one at a time, in chunk order, with the
// same per-key left fold as the in-memory reduce (index/indexer.cc), so
// both paths save the same bytes.
//
// Durability: no fsync (runs are ephemeral), but the checksum trailer and
// the atomic rename keep a run file complete or absent. A run lives only
// inside the temp directory of the build that wrote it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/pattern_index.h"

namespace av {

/// One entry MergeSpillRunsBounded emits; field-for-field the AVIDX003
/// entry.
struct SpillEntry {
  uint64_t key = 0;          ///< PolyHash64(name)
  std::string name;          ///< canonical pattern string
  double sum_impurity = 0;   ///< impurity sum, folded in run order
  uint32_t columns = 0;      ///< coverage count, folded in run order
};

/// Spills one chunk-local index as a run: the bytes `chunk.Save` writes,
/// without the fsync. Returns bytes written.
Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                               const std::string& path);

/// Folds the runs at `paths` in order, as the build's reduce folds them
/// (each read back by PatternIndex::Load, then merged with MergeFrom), and
/// emits every folded entry in name order. One run is open at a time, so
/// any `max_fanin` holds; nothing is written under `tmp_dir`, and
/// `merge_passes` (optional) is set to 0. A run that fails to load fails
/// the call with Load's error, which names the run's path.
Status MergeSpillRunsBounded(std::vector<std::string> paths, size_t max_fanin,
                             const std::string& tmp_dir,
                             const std::function<void(SpillEntry&&)>& emit,
                             size_t* merge_passes = nullptr);

}  // namespace av
