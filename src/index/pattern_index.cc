#include "index/pattern_index.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

std::vector<PatternIndex::SortedRow> PatternIndex::SortedRows() const {
  std::vector<SortedRow> rows;
  rows.reserve(size());
  for (const Shard& s : shards_) {
    s.stats.ForEach([&](uint64_t key, const Stats& e) {
      rows.push_back({key, s.names.Get(e.name), &e});
    });
  }
  std::sort(rows.begin(), rows.end(),
            [](const SortedRow& a, const SortedRow& b) {
              return a.name < b.name;
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
