#include "index/pattern_index.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/durable_file.h"
#include "common/parallel_for.h"
#include "index/index_file.h"

namespace av {

void PatternIndex::CheckNoCollision(uint64_t key, std::string_view stored,
                                    std::string_view fresh) {
  if (stored == fresh) return;
  std::fprintf(stderr,
               "PatternIndex: 64-bit key collision %016llx between \"%.*s\" "
               "and \"%.*s\"; statistics would merge silently\n",
               static_cast<unsigned long long>(key),
               static_cast<int>(stored.size()), stored.data(),
               static_cast<int>(fresh.size()), fresh.data());
  std::abort();
}

uint32_t PatternIndex::NameArena::Append(std::string_view name) {
  if (!Fits(name.size())) {
    std::fprintf(stderr,
                 "PatternIndex: a shard's name arena would pass %llu bytes; "
                 "its 32-bit name offsets cannot address more\n",
                 static_cast<unsigned long long>(kMaxBytes));
    std::abort();
  }
  const size_t offset = bytes_.size();
  const uint32_t len = static_cast<uint32_t>(name.size());
  const char* len_bytes = reinterpret_cast<const char*>(&len);
  bytes_.insert(bytes_.end(), len_bytes, len_bytes + sizeof(len));
  bytes_.insert(bytes_.end(), name.begin(), name.end());
  return static_cast<uint32_t>(offset);
}

std::string_view PatternIndex::NameArena::Get(uint32_t offset) const {
  uint32_t len = 0;
  std::memcpy(&len, bytes_.data() + offset, sizeof(len));
  return {bytes_.data() + offset + sizeof(len), len};
}

void PatternIndex::InsertAggregate(uint64_t key, const std::string& name,
                                   double sum_impurity, uint32_t columns) {
  Shard& shard = ShardFor(key);
  auto [slot, inserted] = shard.stats.TryEmplace(key);
  if (inserted) {
    slot->name = shard.names.Append(name);
  } else {
    CheckNoCollision(key, shard.names.Get(slot->name), name);
  }
  slot->sum_impurity += sum_impurity;
  slot->columns += columns;
}

void PatternIndex::MergeFrom(PatternIndex&& other) {
  for (size_t s = 0; s < kNumShards; ++s) MergeShardFrom(s, &other);
}

void PatternIndex::MergeShardFrom(size_t shard, PatternIndex* other) {
  Shard& dst = shards_[shard];
  Shard& src = other->shards_[shard];
  if (dst.stats.empty()) {
    // Adopt the source table and arena wholesale (name offsets are
    // arena-relative, so they stay valid). Sizing the table for the sum of
    // the merged shards instead would over-size it by up to the number of
    // chunks that share its keys.
    dst = std::move(src);
    src = Shard();
    return;
  }
  src.stats.ConsumePipelined(
      [&dst](uint64_t key) { dst.stats.Prefetch(key); },
      [&dst, &src](uint64_t key, Stats&& e) {
        auto [d, inserted] = dst.stats.TryEmplace(key);
        const std::string_view name = src.names.Get(e.name);
        if (inserted) {
          d->name = dst.names.Append(name);
        } else {
          // Same key from two map-phase accumulators: the strings must
          // agree, or two distinct patterns collided on one 64-bit key.
          // This is the check that covers the production chunked
          // BuildIndex path (chunk-local column counts are too small for
          // AddKeyed's sampled check).
          CheckNoCollision(key, dst.names.Get(d->name), name);
        }
        d->sum_impurity += e.sum_impurity;
        d->columns += e.columns;
      });
  src = Shard();  // release the consumed table and arena now, not at exit
}

std::optional<PatternStats> PatternIndex::Lookup(uint64_t key) const {
  const Stats* e = ShardFor(key).stats.Find(key);
  if (e == nullptr) return std::nullopt;
  PatternStats s;
  s.coverage = e->columns;
  s.fpr = e->columns > 0 ? e->sum_impurity / e->columns : 1.0;
  return s;
}

std::optional<std::string_view> PatternIndex::LookupName(uint64_t key) const {
  const Shard& shard = ShardFor(key);
  const Stats* e = shard.stats.Find(key);
  if (e == nullptr) return std::nullopt;
  return shard.names.Get(e->name);
}

size_t PatternIndex::size() const {
  size_t n = 0;
  for (const Shard& s : shards_) n += s.stats.size();
  return n;
}

void PatternIndex::ForEach(
    const std::function<void(const std::string&, const Entry&)>& fn) const {
  std::string name;
  for (const Shard& s : shards_) {
    s.stats.ForEach([&](uint64_t, const Stats& e) {
      name.assign(s.names.Get(e.name));
      fn(name, Entry{e.sum_impurity, e.columns});
    });
  }
}

namespace {
/// Rows per bucket of the sorted walk: a bucket's rows and the names they
/// point to stay in a core's cache while the bucket is sorted.
constexpr size_t kRowsPerBucket = 8192;
/// Bucket ids are 16-bit; an index past kMaxBuckets * kRowsPerBucket
/// entries gets larger buckets instead of more.
constexpr size_t kMaxBuckets = 4096;
/// Sampled names per bucket: cutting the sorted sample every kOversample
/// names keeps each bucket within a small factor of the mean.
constexpr size_t kOversample = 32;
}  // namespace

std::vector<PatternIndex::SortedRow> PatternIndex::SortedRows() const {
  const size_t n = size();
  // Never more threads than buckets: an index of one bucket is sorted on
  // the calling thread.
  const size_t buckets = std::clamp<size_t>(
      (n + kRowsPerBucket - 1) / kRowsPerBucket, 1, kMaxBuckets);

  // Splitters cut a sorted strided sample of the names into equal parts.
  // Bucket b holds the names in [splitters[b-1], splitters[b]); names are
  // unique, so the sorted buckets concatenate to the one sorted order
  // whichever names the sample drew.
  std::vector<std::string_view> sample;
  const size_t stride = std::max<size_t>(1, n / (buckets * kOversample));
  size_t seen = 0;
  for (const Shard& s : shards_) {
    s.stats.ForEach([&](uint64_t, const Stats& e) {
      if (seen++ % stride == 0) sample.push_back(s.names.Get(e.name));
    });
  }
  std::sort(sample.begin(), sample.end());
  std::vector<std::string_view> splitters;
  for (size_t b = 1; b < buckets; ++b) {
    splitters.push_back(sample[b * sample.size() / buckets]);
  }

  // Each shard's rows by bucket, in slot order, and its per-bucket counts.
  // Everything the threads write is sized here: they allocate nothing.
  std::vector<std::vector<uint16_t>> bucket_of(kNumShards);
  for (size_t s = 0; s < kNumShards; ++s) {
    bucket_of[s].resize(shards_[s].stats.size());
  }
  std::vector<std::vector<size_t>> next(kNumShards,
                                        std::vector<size_t>(buckets));
  ParallelFor(buckets, kNumShards, [&](size_t s) {
    const Shard& shard = shards_[s];
    size_t j = 0;
    shard.stats.ForEach([&](uint64_t, const Stats& e) {
      const std::string_view name = shard.names.Get(e.name);
      const size_t b =
          std::upper_bound(splitters.begin(), splitters.end(), name) -
          splitters.begin();
      bucket_of[s][j++] = static_cast<uint16_t>(b);
      ++next[s][b];
    });
  });
  // Counts to write cursors: buckets in order, shards in order within one.
  std::vector<size_t> bucket_begin(buckets + 1);
  size_t pos = 0;
  for (size_t b = 0; b < buckets; ++b) {
    bucket_begin[b] = pos;
    for (size_t s = 0; s < kNumShards; ++s) {
      pos += std::exchange(next[s][b], pos);
    }
  }
  bucket_begin[buckets] = pos;

  // The one row array, scattered straight from the shards into buckets.
  std::vector<SortedRow> rows(n);
  ParallelFor(buckets, kNumShards, [&](size_t s) {
    const Shard& shard = shards_[s];
    size_t j = 0;
    shard.stats.ForEach([&](uint64_t key, const Stats& e) {
      rows[next[s][bucket_of[s][j++]]++] = {key, shard.names.Get(e.name), &e};
    });
  });
  const auto by_name = [](const SortedRow& x, const SortedRow& y) {
    return x.name < y.name;
  };
  ParallelFor(buckets, buckets, [&](size_t b) {
    std::sort(rows.begin() + bucket_begin[b],
              rows.begin() + bucket_begin[b + 1], by_name);
  });
  return rows;
}

void PatternIndex::ForEachSorted(
    const std::function<void(uint64_t, const std::string&, const Entry&)>& fn)
    const {
  std::string name;
  for (const SortedRow& row : SortedRows()) {
    name.assign(row.name);
    fn(row.key, name, Entry{row.stats->sum_impurity, row.stats->columns});
  }
}

Result<uint64_t> PatternIndex::Write(const std::string& path,
                                     DurableWriteOptions opts) const {
  // Deterministic output: entries sorted by string key, so the file bytes
  // do not depend on hash-map iteration order (and hence on how many
  // threads built the index). Durable output: the payload streams into a
  // temp file and lands via checksum trailer (+ fsync) + atomic rename, so
  // a crashed write never leaves a torn file (or clobbers the previous one).
  DurableFileWriter out;
  AV_RETURN_NOT_OK(out.Open(path, opts));
  AV_RETURN_NOT_OK(out.Append(index_file::kMagic));
  AV_RETURN_NOT_OK(out.AppendPod(static_cast<uint64_t>(size())));
  for (const SortedRow& row : SortedRows()) {
    AV_RETURN_NOT_OK(index_file::AppendEntry(out, row.key, row.name,
                                             row.stats->sum_impurity,
                                             row.stats->columns));
  }
  AV_RETURN_NOT_OK(out.Commit());
  return out.committed_bytes();
}

Status PatternIndex::Save(const std::string& path) const {
  return Write(path, {}).status();
}

Result<PatternIndex> PatternIndex::Load(const std::string& path) {
  auto data = ReadFileImage(path);
  if (!data.ok()) return data.status();
  auto idx = LoadFromBuffer(data->view());
  if (!idx.ok()) {
    return Status(idx.status().code(), idx.status().message() + ": " + path);
  }
  return idx;
}

namespace {
/// How far ahead of its turn the per-shard insert loop prefetches an
/// entry's bytes, and the table slot its key lands in (read from the entry
/// bytes fetched kEntryLookahead - kSlotLookahead turns before).
constexpr size_t kEntryLookahead = 16;
constexpr size_t kSlotLookahead = 8;

/// What stopped a load, and the payload offset of the entry it stopped at
/// (for kUnderReported, of the bytes after the last entry).
enum class LoadError : uint8_t {
  kNone,
  kTruncated,
  kBadLength,
  kKeyMismatch,
  kDuplicate,
  kArenaFull,
  kUnderReported,
};
struct LoadStop {
  size_t offset = SIZE_MAX;
  LoadError error = LoadError::kNone;
};

Status LoadErrorStatus(LoadError error) {
  switch (error) {
    case LoadError::kNone:
      break;
    case LoadError::kTruncated:
      return Status::Corruption("truncated index entry");
    case LoadError::kBadLength:
      return Status::Corruption("bad key length in index");
    case LoadError::kKeyMismatch:
      return Status::Corruption("key/string mismatch in index");
    case LoadError::kDuplicate:
      // The writer emits each key once. A repeat is either a duplicated
      // entry or a second name colliding on the key; neither may be summed
      // into (or abort) the loaded index.
      return Status::Corruption("duplicate key in index");
    case LoadError::kArenaFull:
      return Status::ResourceExhausted("index shard names exceed 4 GiB");
    case LoadError::kUnderReported:
      // Slack after the entries the count covers: the trailer cannot tell.
      return Status::Corruption("index count under-reports entries");
  }
  return Status::OK();
}
}  // namespace

Result<PatternIndex> PatternIndex::LoadFromBuffer(std::string_view data) {
  std::string_view payload = data;
  if (data.starts_with(index_file::kMagic)) {
    // AVIDX003: the trailer is mandatory and covers the whole payload, so a
    // torn or bit-rotted file fails here before any entry is parsed.
    auto len = VerifyTrailer(data);
    if (!len.ok()) return len.status();
    payload = data.substr(0, static_cast<size_t>(*len));
  } else if (!data.starts_with(index_file::kMagicV2)) {
    return Status::Corruption("bad index magic");
  }
  // From here both versions share one payload layout: magic, count, entries.
  auto count = index_file::ReadCount(payload, payload.size());
  if (!count.ok()) return count.status();
  const uint64_t n = *count;
  const char* const begin = payload.data();
  const char* const end = begin + payload.size();
  const char* p = begin + index_file::kHeaderBytes;

  // Pass 1, on the calling thread in file order: frame each entry and file
  // its offset under its key's shard, counting the bytes its name takes in
  // the shard's arena (4-byte length + name). Framing stops at the first
  // entry that does not frame; the entries before it still go through
  // pass 2, and any error there lies earlier in the file.
  std::array<std::vector<size_t>, kNumShards> offsets;
  std::array<uint64_t, kNumShards> arena_bytes{};
  // Keys spread evenly over the shards; a shard past its share just grows.
  for (std::vector<size_t>& o : offsets) {
    o.reserve(static_cast<size_t>(n / kNumShards + n / 64 + 16));
  }
  LoadStop stop;
  for (uint64_t i = 0; i < n; ++i) {
    const size_t at = static_cast<size_t>(p - begin);
    index_file::Entry e;
    size_t size = 0;
    const index_file::FrameError framed =
        index_file::FrameEntry({p, static_cast<size_t>(end - p)}, &e, &size);
    if (framed != index_file::FrameError::kNone) {
      stop = {at, framed == index_file::FrameError::kBadLength
                      ? LoadError::kBadLength
                      : LoadError::kTruncated};
      break;
    }
    offsets[ShardOf(e.key)].push_back(at);
    arena_bytes[ShardOf(e.key)] += sizeof(uint32_t) + e.name.size();
    p += size;
  }
  if (stop.error == LoadError::kNone && p != end) {
    stop = {static_cast<size_t>(p - begin), LoadError::kUnderReported};
  }

  // Every table and arena sized exactly, so pass 2 allocates nothing.
  PatternIndex idx;
  for (size_t s = 0; s < kNumShards; ++s) {
    idx.shards_[s].stats.reserve(offsets[s].size());
    idx.shards_[s].names.reserve(static_cast<size_t>(
        std::min<uint64_t>(arena_bytes[s], NameArena::kMaxBytes)));
  }

  // Pass 2, one ParallelFor index per shard, each shard's entries in file
  // order: check the key, insert, copy the name. A shard stops at its first
  // error; the load reports the error at the smallest offset, which is the
  // one a single pass over the entries in file order meets first. An image
  // of one walk bucket or less loads on the calling thread.
  std::array<LoadStop, kNumShards> shard_stop;
  const size_t threads = std::clamp<size_t>(
      static_cast<size_t>((n + kRowsPerBucket - 1) / kRowsPerBucket), 1,
      kNumShards);
  ParallelFor(threads, kNumShards, [&](size_t s) {
    Shard& shard = idx.shards_[s];
    const std::vector<size_t>& at = offsets[s];
    for (size_t j = 0; j < at.size(); ++j) {
      // Pipelined like U64FlatMap::ConsumePipelined: a shard's entries lie
      // ~16 entries apart in the file and its keys land anywhere in its
      // table, so both are fetched well before their turn.
      if (j + kEntryLookahead < at.size()) {
        const char* ahead = begin + at[j + kEntryLookahead];
        __builtin_prefetch(ahead);
        __builtin_prefetch(ahead + 64);
      }
      if (j + kSlotLookahead < at.size()) {
        uint64_t ahead_key = 0;  // an entry starts with its key
        std::memcpy(&ahead_key, begin + at[j + kSlotLookahead],
                    sizeof(ahead_key));
        shard.stats.Prefetch(ahead_key);
      }
      // Framed in pass 1, so this frames again without fail.
      index_file::Entry e;
      size_t size = 0;
      index_file::FrameEntry({begin + at[j], payload.size() - at[j]}, &e,
                             &size);
      if (e.key != PolyHash64(e.name)) {
        shard_stop[s] = {at[j], LoadError::kKeyMismatch};
        return;
      }
      auto [slot, inserted] = shard.stats.TryEmplace(e.key);
      if (!inserted) {
        shard_stop[s] = {at[j], LoadError::kDuplicate};
        return;
      }
      if (!shard.names.Fits(e.name.size())) {
        shard_stop[s] = {at[j], LoadError::kArenaFull};
        return;
      }
      slot->name = shard.names.Append(e.name);
      slot->sum_impurity = e.sum_impurity;
      slot->columns = e.columns;
    }
  });
  for (const LoadStop& s : shard_stop) {
    if (s.offset < stop.offset) stop = s;
  }
  if (stop.error != LoadError::kNone) return LoadErrorStatus(stop.error);
  return idx;
}

uint64_t PatternIndex::ApproxBytes() const {
  uint64_t bytes = 0;
  for (const Shard& s : shards_) {
    // Every table slot is initialized (resident); an arena's reserved
    // tail is not touched until written.
    bytes += s.stats.MemoryBytes() + s.names.size();
  }
  return bytes;
}

}  // namespace av
