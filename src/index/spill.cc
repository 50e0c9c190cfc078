#include "index/spill.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/hash.h"
#include "index/index_file.h"

namespace av {

Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                               const std::string& path) {
  // Checksummed but not fsync'd: runs are ephemeral (a crash loses the
  // whole build), yet the trailer + atomic rename guarantee a run file is
  // never observed half-written.
  return chunk.Write(path, {.sync = false});
}

Status SpillRunCursor::Open(const std::string& path) {
  path_ = path;
  AV_RETURN_NOT_OK(file_.Open(path));
  // Whole-payload checksum first (streamed, constant memory): a torn,
  // bit-rotted or foreign file is rejected before any entry is framed.
  auto len = VerifyTrailerFile(file_);
  if (!len.ok()) return len.status();
  payload_ = *len;
  return Start();
}

Status SpillRunCursor::OpenBuffer(std::string data) {
  path_ = "<memory>";
  auto len = VerifyTrailer(data);
  if (!len.ok()) return len.status();
  payload_ = read_ = filled_ = static_cast<size_t>(*len);
  window_ = std::move(data);
  return Start();
}

Status SpillRunCursor::Start() {
  if (read_ < payload_) AV_RETURN_NOT_OK(Refill(index_file::kHeaderBytes));
  const std::string_view head = Unread();
  if (!head.starts_with(index_file::kMagic)) {
    return Status::Corruption("spill run is not an AVIDX003 file: " + path_);
  }
  auto count = index_file::ReadCount(head, payload_);
  if (!count.ok()) {
    return Status::Corruption(count.status().message() + ": " + path_);
  }
  remaining_ = *count;
  pos_ += index_file::kHeaderBytes;
  return Next();
}

Status SpillRunCursor::Refill(size_t need) {
  std::memmove(window_.data(), window_.data() + pos_, filled_ - pos_);
  filled_ -= pos_;
  pos_ = 0;
  if (window_.size() < need) window_.resize(std::max(need, kWindowBytes));
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(window_.size() - filled_, payload_ - read_));
  AV_RETURN_NOT_OK(file_.ReadAt(read_, window_.data() + filled_, n));
  filled_ += n;
  read_ += n;
  return Status::OK();
}

Status SpillRunCursor::Next() {
  using index_file::FrameError;
  const bool had_entry = std::exchange(valid_, false);
  if (remaining_ == 0) {
    // A fully-read run must end exactly where its last entry does: slack
    // means the count under-reports the entries written (a checksum only
    // proves the file matches what the writer framed, not that the count
    // was right).
    if (pos_ != filled_ || read_ != payload_) {
      return Status::Corruption("spill run count under-reports entries: " +
                                path_);
    }
    return Status::OK();
  }
  --remaining_;
  index_file::Entry next;
  size_t size = 0;
  FrameError framed = index_file::FrameEntry(Unread(), &next, &size);
  // Past the window's end: read on (an image has nothing more to read).
  while (framed == FrameError::kTruncated && read_ < payload_) {
    AV_RETURN_NOT_OK(Refill(size));
    framed = index_file::FrameEntry(Unread(), &next, &size);
  }
  if (framed != FrameError::kNone) {
    return Status::Corruption((framed == FrameError::kBadLength
                                   ? "bad name length in spill run: "
                                   : "truncated spill run entry: ") +
                              path_);
  }
  if (next.key != PolyHash64(next.name)) {
    return Status::Corruption("key/name mismatch in spill run: " + path_);
  }
  if (had_entry && next.name <= entry_.name) {
    return Status::Corruption("unsorted spill run: " + path_);
  }
  entry_.key = next.key;
  entry_.name.assign(next.name);
  entry_.sum_impurity = next.sum_impurity;
  entry_.columns = next.columns;
  pos_ += size;
  valid_ = true;
  return Status::OK();
}

Status MergeSpillRuns(std::span<const std::string> paths,
                      const std::function<void(SpillEntry&&)>& emit) {
  std::vector<SpillRunCursor> cursors(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    AV_RETURN_NOT_OK(cursors[i].Open(paths[i]));
  }

  // Min-heap of cursor indexes ordered by (name, run index). Ties on name
  // pop in ascending run index — the fold order the determinism contract
  // requires. std::make_heap is a max-heap, so the comparator is reversed.
  auto greater = [&cursors](size_t a, size_t b) {
    const int cmp = cursors[a].entry().name.compare(cursors[b].entry().name);
    if (cmp != 0) return cmp > 0;
    return a > b;
  };
  std::vector<size_t> heap;
  heap.reserve(cursors.size());
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].valid()) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  auto pop = [&]() -> size_t {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const size_t i = heap.back();
    heap.pop_back();
    return i;
  };
  auto reinsert = [&](size_t i) -> Status {
    AV_RETURN_NOT_OK(cursors[i].Next());
    if (cursors[i].valid()) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), greater);
    }
    return Status::OK();
  };

  while (!heap.empty()) {
    const size_t first = pop();
    SpillEntry merged = cursors[first].entry();
    AV_RETURN_NOT_OK(reinsert(first));
    // Fold every other run's entry for this name, in run order (the heap
    // yields equal names by ascending run index; a strictly-sorted run
    // contributes at most one entry per name).
    while (!heap.empty() && cursors[heap.front()].entry().name == merged.name) {
      const size_t next = pop();
      const SpillEntry& e = cursors[next].entry();
      if (e.key != merged.key) {
        // Same name hashing to two keys is impossible for intact runs
        // (cursors validate key == PolyHash64(name)); belt and braces.
        return Status::Corruption("key mismatch across spill runs for \"" +
                                  merged.name + "\"");
      }
      merged.sum_impurity += e.sum_impurity;
      merged.columns += e.columns;
      AV_RETURN_NOT_OK(reinsert(next));
    }
    emit(std::move(merged));
  }
  return Status::OK();
}

Status MergeSpillRunsBounded(std::vector<std::string> paths, size_t max_fanin,
                             const std::string& tmp_dir,
                             const std::function<void(SpillEntry&&)>& emit,
                             size_t* merge_passes) {
  max_fanin = std::max<size_t>(2, max_fanin);
  size_t passes = 0;
  while (paths.size() > max_fanin) {
    // Left-cascade: fold the FIRST max_fanin runs into one accumulated run
    // and put it back at the head of the list. Grouping anywhere else
    // (e.g. pairing (r2,r3) while (r0,r1) merges) would change the
    // floating-point fold shape — the in-memory reduce is a strict left
    // fold ((P0+P1)+P2)+P3 over chunk partials, and only a left-cascade
    // reproduces it exactly: fold(fold(P0..Pk), Pk+1, ...) IS the full
    // fold. The accumulated prefix is built in memory as an index (no
    // larger than the one the final pass builds anyway), written back as a
    // run and re-read once per pass; with fan-in derived from any realistic
    // budget a single pass covers every run, so the cascade is a
    // tiny-budget fallback, not the common case.
    ++passes;
    PatternIndex prefix;
    AV_RETURN_NOT_OK(MergeSpillRuns(
        std::span<const std::string>(paths.data(), max_fanin),
        [&prefix](SpillEntry&& e) {
          // Each name arrives once, already folded in run order, so the
          // index stores its sums as they are.
          prefix.InsertAggregate(e.key, e.name, e.sum_impurity, e.columns);
        }));
    const std::string out_path =
        (std::filesystem::path(tmp_dir) /
         ("merge_" + std::to_string(passes) + ".avspill"))
            .string();
    AV_RETURN_NOT_OK(WriteSpillRun(prefix, out_path).status());
    // The merged inputs are dead; reclaim the disk space now instead of at
    // end-of-build (bounds peak spill footprint on deep cascades).
    for (size_t i = 0; i < max_fanin; ++i) {
      std::error_code ec;
      std::filesystem::remove(paths[i], ec);
    }
    paths.erase(paths.begin() + 1, paths.begin() + max_fanin);
    paths.front() = out_path;
  }
  if (merge_passes != nullptr) *merge_passes = passes;
  return MergeSpillRuns(paths, emit);
}

}  // namespace av
