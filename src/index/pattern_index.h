// The offline index of Section 2.4: maps every pattern p in P(T) to its
// pre-aggregated corpus statistics, so the online stage can evaluate
// FPR_T(h) and Cov_T(h) with hash lookups instead of corpus scans.
//
// Keying: entries are keyed on the canonical 64-bit interned pattern key
// (PatternKey == PolyHash64 of the canonical string form), so the online
// FMDV inner loop probes with an integer hash instead of materializing
// pattern strings. The readable string form is kept as side data per entry
// in an append-only per-shard name arena — it is only written on first
// insertion, and read by the collision checks, reporting and the on-disk
// format. Key collisions (two patterns, one key) would silently merge
// statistics, so the index aborts loudly on mismatch where names are cheap
// to compare: MergeShardFrom checks every duplicate key it merges (this
// covers the chunked BuildIndex reduce), InsertAggregate checks every
// repeat, AddKeyed checks a sampled subset of repeat insertions, Load
// rejects any key seen twice, and FMDV re-checks accepted hypotheses.
//
// Sharding: the key space is split into kNumShards shards by the key's top
// bits. Shards are independent, which lets the offline job's reduce phase
// merge different shards concurrently without a global lock (see indexer.cc).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.h"
#include "common/flat_hash.h"
#include "common/hash.h"
#include "common/status.h"
#include "pattern/pattern.h"

namespace av {

/// Aggregated corpus statistics of one pattern (Definitions 1-3).
struct PatternStats {
  /// FPR_T(p): average impurity over columns where some value matches p.
  double fpr = 0;
  /// Cov_T(p): number of columns where some value matches p.
  uint64_t coverage = 0;
};

/// Accumulating pattern -> statistics map with binary (de)serialization.
class PatternIndex {
 public:
  struct Entry {
    double sum_impurity = 0;
    uint32_t columns = 0;
  };

  static constexpr size_t kNumShards = 16;

  PatternIndex() = default;

  /// Records one column's evidence for the pattern with interned key `key`
  /// (call only when the column has at least one matching value, per
  /// Definition 3). `name_fn` returns the canonical string form (any type
  /// convertible to std::string_view) and is invoked only the first time
  /// `key` is seen and on the sampled collision checks. Statistics live in a
  /// dense key->stats table (24-byte slots, cache-friendly probes); the name
  /// is copied into the shard's arena on first insertion.
  template <class NameFn>
  void AddKeyed(uint64_t key, double impurity, NameFn&& name_fn) {
    Shard& shard = ShardFor(key);
    auto [slot, inserted] = shard.stats.TryEmplace(key);
    if (inserted) {
      slot->name = shard.names.Append(name_fn());
    } else if ((slot->columns & 0xFF) == 0xFF) {
      // Sampled collision check (~1/256 repeat insertions): a key whose
      // stored name disagrees with the caller's pattern means two distinct
      // patterns hash to one key — stats would merge silently. Fail loudly.
      CheckNoCollision(key, shard.names.Get(slot->name), name_fn());
    }
    slot->sum_impurity += impurity;
    slot->columns += 1;
  }

  /// String-keyed convenience (tests, small tools). Equivalent to AddKeyed
  /// with the interned key of `pattern_key`.
  void Add(const std::string& pattern_key, double impurity) {
    AddKeyed(PolyHash64(pattern_key), impurity,
             [&]() -> std::string_view { return pattern_key; });
  }

  /// Inserts a fully-aggregated entry (a MergeSpillRunsBounded result):
  /// `sum_impurity`/`columns` are added as-is, not treated as a
  /// single column's evidence. Aborts loudly if `key` is already present
  /// under a different name (64-bit key collision between distinct
  /// patterns, same policy as the merge paths).
  void InsertAggregate(uint64_t key, const std::string& name,
                       double sum_impurity, uint32_t columns);

  /// Merges and consumes another index; the offline job uses MergeShardFrom.
  void MergeFrom(PatternIndex&& other);

  /// Merges (and consumes) one shard of `other` into the same shard of this
  /// index: an empty shard adopts `other`'s table and arena wholesale, a
  /// non-empty one takes `other`'s entries one by one (growing by
  /// doubling). Distinct shards are independent, so the offline reduce
  /// phase may call this concurrently for different `shard` values.
  void MergeShardFrom(size_t shard, PatternIndex* other);

  /// Cache-warms the slot `key` would land in (pair with AddKeyed/Lookup a
  /// few operations later to hide the probe's memory latency).
  void Prefetch(uint64_t key) const { ShardFor(key).stats.Prefetch(key); }

  /// O(1) hash probe by interned key; nullopt if never seen in T.
  std::optional<PatternStats> Lookup(uint64_t key) const;
  /// Probe by pattern (computes the interned key, no string materialized).
  std::optional<PatternStats> Lookup(const Pattern& p) const {
    return Lookup(PatternKey(p));
  }
  /// Probe by canonical string form (compat / reporting path).
  std::optional<PatternStats> Lookup(const std::string& pattern_key) const {
    return Lookup(PolyHash64(pattern_key));
  }

  /// Stored canonical string form for `key`, or nullopt if absent. Lets
  /// callers that act on a lookup (e.g. FMDV accepting a hypothesis)
  /// confirm the entry really belongs to their pattern and not to a 64-bit
  /// key collision. The view stays valid until the next insert or merge.
  std::optional<std::string_view> LookupName(uint64_t key) const;

  size_t size() const;

  /// Iterates over all entries (analysis / serialization). Shard-by-shard;
  /// order within a shard is unspecified. The name argument is one string
  /// reused across calls: copy it to keep it.
  void ForEach(
      const std::function<void(const std::string&, const Entry&)>& fn) const;

  /// Iterates over all entries sorted by canonical string form — the
  /// deterministic order of the AVIDX003 file, spill runs included. The
  /// name argument is reused across calls, as in ForEach.
  void ForEachSorted(const std::function<void(uint64_t, const std::string&,
                                              const Entry&)>& fn) const;

  /// Binary serialization (format AVIDX003, docs/FILE_FORMATS.md). Entries
  /// are written sorted by string key, so two indexes with identical
  /// contents produce byte-identical files regardless of build thread
  /// count; the write is crash-safe (temp file + checksum trailer + fsync +
  /// atomic rename — a killed save never leaves a torn file or destroys the
  /// previous index). The on-disk artifact is the "orders of magnitude
  /// smaller than T" summary of Section 2.4.
  Status Save(const std::string& path) const;
  /// Reads AVIDX003 (trailer-verified; spill runs included) and, for
  /// compatibility, untrailed AVIDX002 files. Rejects torn/corrupt input,
  /// including any key that appears twice, with kCorruption, and a path
  /// that is not a regular file with kIOError; every error names `path`.
  static Result<PatternIndex> Load(const std::string& path);
  /// Load from an in-memory file image (the fuzz-harness entry point; Load
  /// is ReadFileImage plus this). An image of more than 8192 entries is
  /// checked and inserted shard by shard on the ParallelFor helpers
  /// (common/parallel_for.h); a corrupt one fails with the error of its
  /// first failing entry in file order, whatever the thread count.
  static Result<PatternIndex> LoadFromBuffer(std::string_view data);

  /// In-memory footprint in bytes: every table slot plus the name bytes
  /// written to the arenas. Feeds the out-of-core build's memory budget.
  uint64_t ApproxBytes() const;

 private:
  /// WriteSpillRun (index/spill.h) is Write without the fsync.
  friend Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                                        const std::string& path);

  /// Save with its write policy open: writes the AVIDX003 file, each name
  /// straight from its arena, and returns the file's size.
  Result<uint64_t> Write(const std::string& path,
                         DurableWriteOptions opts) const;

  /// Aborts with a diagnostic if `stored` and `fresh` differ (64-bit key
  /// collision between distinct patterns — unrecoverable stat corruption).
  static void CheckNoCollision(uint64_t key, std::string_view stored,
                               std::string_view fresh);

  /// Table value: an Entry plus the arena offset of the entry's name, which
  /// sits where Entry has padding, so a slot stays at 24 bytes.
  struct Stats {
    double sum_impurity = 0;
    uint32_t columns = 0;
    uint32_t name = 0;
  };
  static_assert(U64FlatMap<Stats>::kSlotBytes == 24,
                "the stats slot must stay at 24 bytes");

  /// One shard's names, append-only: each record is a u32 length followed
  /// by the name's bytes, addressed by the 32-bit offset of its length.
  class NameArena {
   public:
    /// Largest arena a 32-bit offset can address.
    static constexpr uint64_t kMaxBytes = uint64_t{1} << 32;

    /// True if appending a `len`-byte name keeps the arena within kMaxBytes.
    bool Fits(size_t len) const {
      return bytes_.size() + sizeof(uint32_t) + len <= kMaxBytes;
    }
    /// Appends `name` and returns its offset; aborts if it does not Fit
    /// (an offset must never wrap).
    uint32_t Append(std::string_view name);
    std::string_view Get(uint32_t offset) const;

    size_t size() const { return bytes_.size(); }
    void reserve(size_t n) { bytes_.reserve(n); }

   private:
    std::vector<char> bytes_;
  };

  struct Shard {
    U64FlatMap<Stats> stats;  ///< hot accumulate/lookup path
    NameArena names;          ///< canonical string forms (cold path)
  };

  /// Every entry as (key, name, stats), sorted by name: a sample sort over
  /// name ranges of about 8192 entries, sorted in parallel once there is
  /// more than one. The order depends on neither the sample nor the
  /// thread count.
  struct SortedRow {
    uint64_t key;
    std::string_view name;
    const Stats* stats;
  };
  std::vector<SortedRow> SortedRows() const;

  static size_t ShardOf(uint64_t key) { return key >> 60; }
  Shard& ShardFor(uint64_t key) { return shards_[ShardOf(key)]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[ShardOf(key)]; }

  std::array<Shard, kNumShards> shards_;
};

}  // namespace av
