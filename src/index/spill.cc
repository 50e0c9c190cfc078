#include "index/spill.h"

#include <utility>

namespace av {

Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                               const std::string& path) {
  // Checksummed but not fsync'd: runs are ephemeral (a crash loses the
  // whole build), yet the trailer + atomic rename guarantee a run file is
  // never observed half-written.
  return chunk.Write(path, {.sync = false});
}

Status MergeSpillRunsBounded(std::vector<std::string> paths,
                             size_t /*max_fanin*/,
                             const std::string& /*tmp_dir*/,
                             const std::function<void(SpillEntry&&)>& emit,
                             size_t* merge_passes) {
  if (merge_passes != nullptr) *merge_passes = 0;
  PatternIndex merged;
  for (const std::string& path : paths) {
    auto run = PatternIndex::Load(path);
    if (!run.ok()) return run.status();
    merged.MergeFrom(std::move(run).value());
  }
  merged.ForEachSorted([&emit](uint64_t key, const std::string& name,
                               const PatternIndex::Entry& e) {
    emit({key, name, e.sum_impurity, e.columns});
  });
  return Status::OK();
}

}  // namespace av
