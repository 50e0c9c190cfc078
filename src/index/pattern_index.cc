#include "index/pattern_index.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/durable_file.h"

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

namespace {
/// Current format: checksum-trailed, crash-safe writes (docs/FILE_FORMATS.md).
constexpr char kMagic[8] = {'A', 'V', 'I', 'D', 'X', '0', '0', '3'};
/// Previous format, still readable (identical payload, no trailer).
constexpr char kMagicV2[8] = {'A', 'V', 'I', 'D', 'X', '0', '0', '2'};
/// Smallest possible on-disk entry: key (8) + length (4) + empty string (0)
/// + sum_impurity (8) + columns (4).
constexpr uint64_t kMinEntryBytes = 24;
}  // namespace

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

/// Helper threads no sorted walk holds: every walk in the process draws
/// from one budget of hardware_concurrency() - 1 (its calling thread works
/// too), so walks that run at once, such as the spill runs of an
/// out-of-core build, split the machine instead of each assuming all of it.
std::atomic<size_t>& FreeWalkHelpers() {
  static std::atomic<size_t> free_helpers{
      std::max<size_t>(1, std::thread::hardware_concurrency()) - 1};
  return free_helpers;
}

/// Runs fn(i) for every i in [0, count) on the calling thread and up to
/// `max_threads - 1` helper threads drawn from FreeWalkHelpers(), each
/// taking the next unclaimed i.
///
/// `fn` must not allocate, and the helpers are bare POSIX threads rather
/// than a ThreadPool's workers or std::threads, so a helper never calls
/// malloc or free. glibc attaches a thread to a malloc arena the first time
/// it does, preferring one a finished thread left behind: in a process that
/// alternates builds and saves, the walk's threads then hold the last
/// build's arenas, freed pages and all, and the next build allocates from
/// fresh ones. On the benchmark (4-vCPU Xeon) a ThreadPool per walk raised
/// the out-of-core peak RSS from 183 to 285 MiB, one process-wide
/// ThreadPool raised `lake_index`'s from 258 to 296 MiB, and std::threads,
/// which free their start state as they exit, still raised the out-of-core
/// median by 12 MiB.
void ParallelFor(size_t max_threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  struct Work {
    std::atomic<size_t> next{0};
    size_t count;
    const std::function<void(size_t)>* fn;
    void Run() {
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
        (*fn)(i);
      }
    }
  } work{{}, count, &fn};
  const auto run = [](void* w) -> void* {
    static_cast<Work*>(w)->Run();
    return nullptr;
  };
  const size_t want = std::max<size_t>(1, std::min(max_threads, count)) - 1;
  std::atomic<size_t>& free_helpers = FreeWalkHelpers();
  size_t free = free_helpers.load(std::memory_order_relaxed);
  size_t taken = std::min(free, want);
  while (taken > 0 && !free_helpers.compare_exchange_weak(
                          free, free - taken, std::memory_order_relaxed)) {
    taken = std::min(free, want);
  }
  std::vector<pthread_t> helpers;
  helpers.reserve(taken);
  for (size_t t = 0; t < taken; ++t) {
    pthread_t helper;
    // No thread to spare: the caller runs what is left.
    if (pthread_create(&helper, nullptr, run, &work) != 0) break;
    helpers.push_back(helper);
  }
  work.Run();
  for (const pthread_t helper : helpers) pthread_join(helper, nullptr);
  free_helpers.fetch_add(taken, std::memory_order_relaxed);
}
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

Status PatternIndex::Save(const std::string& path) const {
  // Deterministic output: entries sorted by string key, so the file bytes
  // do not depend on hash-map iteration order (and hence on how many
  // threads built the index). Durable output: the payload streams into a
  // temp file and lands via checksum trailer + fsync + atomic rename, so a
  // crashed save never leaves a torn file (or clobbers the previous index).
  DurableFileWriter out;
  AV_RETURN_NOT_OK(out.Open(path));
  AV_RETURN_NOT_OK(out.Append(kMagic, sizeof(kMagic)));
  const uint64_t n = size();
  AV_RETURN_NOT_OK(out.AppendPod(n));
  for (const SortedRow& row : SortedRows()) {
    const uint32_t len = static_cast<uint32_t>(row.name.size());
    AV_RETURN_NOT_OK(out.AppendPod(row.key));
    AV_RETURN_NOT_OK(out.AppendPod(len));
    AV_RETURN_NOT_OK(out.Append(row.name.data(), len));
    AV_RETURN_NOT_OK(out.AppendPod(row.stats->sum_impurity));
    AV_RETURN_NOT_OK(out.AppendPod(row.stats->columns));
  }
  return out.Commit();
}

Result<PatternIndex> PatternIndex::Load(const std::string& path) {
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  auto idx = LoadFromBuffer(*data);
  if (!idx.ok()) {
    return Status(idx.status().code(), idx.status().message() + ": " + path);
  }
  return idx;
}

Result<PatternIndex> PatternIndex::LoadFromBuffer(std::string_view data) {
  std::string_view payload = data;
  if (data.size() >= sizeof(kMagic) &&
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0) {
    // AVIDX003: the trailer is mandatory and covers the whole payload, so a
    // torn or bit-rotted file fails here before any entry is parsed.
    auto len = VerifyTrailer(data);
    if (!len.ok()) return len.status();
    payload = data.substr(0, static_cast<size_t>(*len));
  } else if (data.size() < sizeof(kMagicV2) ||
             std::memcmp(data.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::Corruption("bad index magic");
  }
  // From here both versions share one payload layout: magic, count, entries.
  const char* p = payload.data() + sizeof(kMagic);
  const char* end = payload.data() + payload.size();
  uint64_t n = 0;
  if (static_cast<size_t>(end - p) < sizeof(n)) {
    return Status::Corruption("truncated index header");
  }
  std::memcpy(&n, p, sizeof(n));
  p += sizeof(n);
  // A corrupt header cannot trigger an unbounded allocation: every entry
  // occupies at least kMinEntryBytes, so n is bounded by the payload size.
  if (n > static_cast<uint64_t>(end - p) / kMinEntryBytes) {
    return Status::Corruption("entry count exceeds file size");
  }
  // Size each shard for its share of n (keys are uniform over shards) plus
  // headroom for skew, and each arena for its share of the names: an
  // entry's arena record (4-byte length + name) is its file record minus
  // the key and the stats.
  const size_t per_shard = static_cast<size_t>(n / kNumShards);
  const uint64_t name_bytes = static_cast<uint64_t>(end - p) -
                              (kMinEntryBytes - sizeof(uint32_t)) * n;
  const size_t arena_per_shard = static_cast<size_t>(name_bytes / kNumShards);
  PatternIndex idx;
  for (Shard& shard : idx.shards_) {
    shard.stats.reserve(per_shard + per_shard / 8 + 16);
    shard.names.reserve(arena_per_shard + arena_per_shard / 8 + 64);
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    uint32_t len = 0;
    if (static_cast<size_t>(end - p) < sizeof(key) + sizeof(len)) {
      return Status::Corruption("truncated index entry");
    }
    std::memcpy(&key, p, sizeof(key));
    p += sizeof(key);
    std::memcpy(&len, p, sizeof(len));
    p += sizeof(len);
    if (len > (1u << 24)) {
      return Status::Corruption("bad key length in index");
    }
    Entry e;
    if (static_cast<size_t>(end - p) <
        len + sizeof(e.sum_impurity) + sizeof(e.columns)) {
      return Status::Corruption("truncated index entry");
    }
    const std::string_view name(p, len);
    p += len;
    std::memcpy(&e.sum_impurity, p, sizeof(e.sum_impurity));
    p += sizeof(e.sum_impurity);
    std::memcpy(&e.columns, p, sizeof(e.columns));
    p += sizeof(e.columns);
    if (key != PolyHash64(name)) {
      return Status::Corruption("key/string mismatch in index");
    }
    // The writer emits each key once. A repeat is either a duplicated
    // entry or a second name colliding on the key; neither may be summed
    // into (or abort) the loaded index.
    Shard& shard = idx.ShardFor(key);
    auto [slot, inserted] = shard.stats.TryEmplace(key);
    if (!inserted) return Status::Corruption("duplicate key in index");
    if (!shard.names.Fits(len)) {
      return Status::ResourceExhausted("index shard names exceed 4 GiB");
    }
    slot->name = shard.names.Append(name);
    slot->sum_impurity = e.sum_impurity;
    slot->columns = e.columns;
  }
  // The entries must end where the payload does: slack means the count
  // under-reports what was written (the trailer cannot tell).
  if (p != end) return Status::Corruption("index count under-reports entries");
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
