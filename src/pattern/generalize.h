// Column-level pattern generation (Algorithm 1 of the paper).
//
// A column's distinct values are grouped into *shape groups* (identical
// symbol skeleton; chunk positions wildcarded). Within a group, every value
// aligns position-by-position, and each position carries a set of candidate
// atoms (the generalization ladder rungs) with a bitmask of which distinct
// values satisfy each atom.
//
// Two enumerations are exposed:
//   - EnumerateUnion: the offline P(D) enumeration — all ladder patterns
//     matched by at least a coverage-threshold fraction of the column
//     (Algorithm 1's coarse-then-drill-down with coverage pruning), together
//     with exact weighted match counts (for Imp_D computation).
//   - EnumerateHypotheses: the online H(C) enumeration — ladder patterns
//     consistent with EVERY value of the group (the intersection of P(v)),
//     optionally restricted to a token sub-range (used by vertical cuts).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/column_view.h"
#include "common/hash.h"
#include "pattern/pattern.h"
#include "pattern/token.h"
#include "pattern/tokenized_column.h"

namespace av {

/// Tuning knobs for pattern generation. Defaults follow the paper where it
/// gives values (tau = 13) and are otherwise chosen for laptop scale.
struct GeneralizeConfig {
  /// tau: columns/segments wider than this many tokens are not enumerated.
  size_t max_tokens = 13;
  /// Algorithm-1 coverage threshold: a generated pattern must match at least
  /// this fraction of the column's values.
  double coverage_frac = 0.03;
  /// ... and at least this many values.
  uint64_t min_cover_values = 2;
  /// Per-position caps on Const / fixed-length rungs.
  size_t max_const_options = 8;
  size_t max_len_options = 4;
  /// Literal rungs longer than this are not generated.
  size_t max_literal_len = 48;
  /// Budget for offline per-column enumeration.
  size_t max_patterns_per_column = 20000;
  /// Budget for online hypothesis enumeration.
  size_t max_hypotheses = 50000;
  /// Offline, the distinct values profiled per column (the default covers
  /// the 1000-value column cap). Online, the most distinct values a rule is
  /// trained on: a training profiles every value, and SelectConforming
  /// rejects a chosen shape group with more distinct values than this.
  size_t max_distinct_values = 1024;
};

/// One shape group: distinct values sharing a symbol skeleton.
struct ShapeGroup {
  std::string proto_value;          ///< representative value
  std::vector<Token> proto_tokens;  ///< its tokens (positions of the group)
  std::vector<uint32_t> value_ids;  ///< distinct-value ids in this group
  uint64_t weight = 0;              ///< total row count of the group
  bool over_token_limit = false;    ///< t(v) > tau: not enumerable
};

/// Distinct values of a column, grouped into shape groups (largest first).
///
/// The profile is a thin shape-grouping layer over TokenizedColumn: distinct
/// values live in one character arena and their token runs in one TokenArena
/// (the same representation the online validate path matches against), so
/// offline enumeration and online validation tokenize through one code path
/// and one allocation scheme.
class ColumnProfile {
 public:
  /// Scans `values` and builds the profile. Order-deterministic. Takes a
  /// ColumnView so callers can profile borrowed buffers (or a prefix of a
  /// large column) without copying; only distinct values are copied into
  /// the profile's arena, which owns its bytes. Weighted views contribute
  /// their row weights.
  static ColumnProfile Build(ColumnView values, const GeneralizeConfig& cfg);

  /// The underlying tokenize-once column (distinct values + token spans).
  const TokenizedColumn& column() const { return column_; }

  size_t num_distinct() const { return column_.num_distinct(); }
  std::string_view value(size_t id) const { return column_.value(id); }
  std::span<const Token> tokens(size_t id) const { return column_.tokens(id); }
  uint32_t weight(size_t id) const { return column_.weight(id); }

  const std::vector<ShapeGroup>& shapes() const { return shapes_; }

  /// Total rows scanned, including rows of values beyond the distinct cap.
  uint64_t total_weight() const { return column_.total_rows(); }

 private:
  TokenizedColumn column_;
  std::vector<ShapeGroup> shapes_;
};

/// Reusable construction arena for ShapeOptions: per-position candidate
/// gathering (class presence, per-text and per-length accumulators, and the
/// satisfaction bitmasks) draws from these pooled tables instead of building
/// and tearing down hash maps of bitsets for every shape group. Keep one
/// instance per thread and pass it across groups / columns — clears retain
/// capacity, so the steady state allocates nothing. Not thread-safe.
class ShapeScratch {
 public:
  ShapeScratch() = default;
  ShapeScratch(const ShapeScratch&) = delete;
  ShapeScratch& operator=(const ShapeScratch&) = delete;

 private:
  friend class ShapeOptions;

  /// Weight accumulator for one distinct token text at one position.
  struct TextAcc {
    std::string_view text;  ///< view into the profile's arena
    uint64_t weight = 0;
    int32_t option = -1;  ///< emitted option index, or -1 if not selected
  };
  /// Weight accumulator for one (rung kind, token length) at one position.
  struct LenAcc {
    uint32_t kind = 0;  ///< 0=any chunk, 1=digits, 2=letters, 3=lower, 4=upper
    uint32_t len = 0;
    uint64_t weight = 0;
    int32_t option = -1;
  };
  /// Per-local-value facts recorded by the gather pass so the mask-filling
  /// pass needs no re-hashing and no re-classification.
  struct ValueSlots {
    int32_t text = -1;      ///< slot in texts
    int32_t len_all = -1;   ///< slot of (any-chunk, len)
    int32_t len_cls = -1;   ///< slot of (digits|letters, len)
    int32_t len_case = -1;  ///< slot of (lower|upper, len)
    uint8_t flags = 0;      ///< kIsDigits | kIsLetters | kIsLower | kIsUpper
  };
  static constexpr uint8_t kIsDigits = 1;
  static constexpr uint8_t kIsLetters = 2;
  static constexpr uint8_t kIsLower = 4;
  static constexpr uint8_t kIsUpper = 8;

  // Group-by tables, cleared per position (buckets/capacity retained).
  std::unordered_map<std::string_view, uint32_t> text_slot;
  std::unordered_map<uint64_t, uint32_t> len_slot;  ///< key = kind<<32 | len
  std::vector<TextAcc> texts;
  std::vector<LenAcc> lens;
  std::vector<ValueSlots> value_slots;  ///< sized to the group width

  // Selection scratch (indices into texts / lens, sorted by weight).
  std::vector<uint32_t> order;
};

/// Per-position candidate atoms (with satisfaction bitmasks) for one shape
/// group, plus the DFS enumerators over them.
class ShapeOptions {
 public:
  /// Builds the per-position options. Pass a ShapeScratch to reuse the
  /// gathering tables across groups / columns (hot offline path); without
  /// one, a private scratch is used.
  ShapeOptions(const ColumnProfile& profile, const ShapeGroup& group,
               const GeneralizeConfig& cfg, ShapeScratch* scratch = nullptr);

  size_t num_positions() const { return options_.size(); }
  uint64_t group_weight() const { return group_weight_; }

  /// Offline P(D) enumeration with coverage pruning. `cb` receives each
  /// pattern and its exact weighted match count within the group.
  /// `min_weight` is the Algorithm-1 coverage floor (absolute row count).
  void EnumerateUnion(
      uint64_t min_weight, size_t max_patterns,
      const std::function<void(Pattern&&, uint64_t)>& cb) const;

  /// EnumerateUnion for the offline indexer, without a Pattern per
  /// emission: `cb(key, weight, name)` receives the canonical 64-bit
  /// interned key (== PatternKey of the pattern), its weighted match count,
  /// and `name`, whose `name()` returns the pattern's canonical string form
  /// (== ToString) as a std::string_view. Each option's text is rendered
  /// once per call (AppendAtomText), and `name()` concatenates the chosen
  /// options' texts into one buffer reused across emissions: the view stays
  /// valid until `cb` returns, and a consumer that never calls `name()` (a
  /// key it has seen) pays nothing for it. Emissions are software-pipelined:
  /// each key is announced to `prefetch` several emissions before `cb` sees
  /// it, so the consumer's hash-table probe finds its cache line already
  /// warm. Delivery order is FIFO and equals EnumerateUnion's. Templated so
  /// the whole chain inlines into the caller (defined below in this header).
  template <class Prefetch, class Cb>
  void EnumerateUnionKeyed(uint64_t min_weight, size_t max_patterns,
                           const Prefetch& prefetch, const Cb& cb) const;

  /// Overload without a prefetch hook.
  template <class Cb>
  void EnumerateUnionKeyed(uint64_t min_weight, size_t max_patterns,
                           const Cb& cb) const {
    EnumerateUnionKeyed(min_weight, max_patterns, [](uint64_t) {}, cb);
  }

  /// Online H enumeration over positions [begin, end): patterns consistent
  /// with every value of the group. `begin`/`end` default to the full width.
  void EnumerateHypotheses(size_t max_patterns,
                           const std::function<void(Pattern&&)>& cb) const;
  void EnumerateHypothesesRange(
      size_t begin, size_t end, size_t max_patterns,
      const std::function<void(Pattern&&)>& cb) const;

 private:
  struct Option {
    Atom atom;
    Bitset mask;
    uint64_t weight = 0;  ///< weighted count of satisfied values
  };

  /// Shared DFS of the union enumeration; `leaf(chosen, weight)` is invoked
  /// per surviving pattern with the per-position option choices.
  template <class Leaf>
  void UnionDfs(uint64_t min_weight, size_t max_patterns,
                const Leaf& leaf) const;

  std::vector<std::vector<Option>> options_;
  std::vector<uint32_t> local_weights_;  ///< weight per local value id
  uint64_t group_weight_ = 0;
  size_t n_local_ = 0;
};

/// Appends `atom` to `atoms`, merging adjacent literals (the canonical form
/// used by all enumerators and by vertical-cut concatenation).
void AppendAtomMerged(std::vector<Atom>& atoms, const Atom& atom);

/// One generated pattern with its exact match count (Algorithm 1's output).
struct GeneratedPattern {
  Pattern pattern;
  uint64_t matches = 0;  ///< values of S matching the pattern
};

/// The paper's Algorithm 1, `GeneratePatterns(S, H)`: generates the patterns
/// of a value multiset induced by the generalization hierarchy, with
/// coarse-shape grouping, coverage pruning and fine-grained drill-down.
/// Deterministic order (by descending match count, then pattern text).
std::vector<GeneratedPattern> GeneratePatterns(ColumnView values,
                                               const GeneralizeConfig& cfg = {});

// ---------------------------------------------------------------------------
// Template definitions (hot offline path; kept in the header so the DFS and
// its leaf inline into the indexer's emission loop).

template <class Leaf>
void ShapeOptions::UnionDfs(uint64_t min_weight, size_t max_patterns,
                            const Leaf& leaf) const {
  const size_t n = options_.size();
  if (n == 0) return;
  // Any position with zero options (all rungs below coverage) kills the
  // whole group's enumeration.
  for (const auto& opts : options_) {
    if (opts.empty()) return;
  }
  // DFS state per depth. `cur[d]` points at the active mask entering depth
  // d; full-mask options reuse the parent's mask (and its cached weighted
  // count) instead of re-running And + WeightedCount, and while the whole
  // prefix is full-mask (`full_prefix[d]`) a partial option's weight is its
  // precomputed per-option count — no Bitset scan at all. Only a partial
  // option under a partial prefix pays for an intersection.
  std::vector<Bitset> scratch(n);
  for (size_t d = 0; d < n; ++d) scratch[d] = Bitset(n_local_);
  const Bitset all(n_local_, true);
  std::vector<const Bitset*> cur(n + 1, nullptr);
  std::vector<bool> full_prefix(n + 1, false);
  cur[0] = &all;
  full_prefix[0] = true;
  std::vector<const Option*> chosen(n, nullptr);
  size_t emitted = 0;
  size_t visits = 0;
  const size_t visit_cap = max_patterns * 64 + 4096;

  const auto dfs = [&](const auto& self, size_t pos, uint64_t weight) -> void {
    if (emitted >= max_patterns || visits >= visit_cap) return;
    if (pos == n) {
      leaf(chosen, weight);
      ++emitted;
      return;
    }
    for (const Option& o : options_[pos]) {
      if (emitted >= max_patterns || ++visits >= visit_cap) return;
      const bool o_full = o.weight == group_weight_;
      uint64_t w;
      if (o_full) {
        cur[pos + 1] = cur[pos];  // intersection is a no-op
        w = weight;
      } else if (full_prefix[pos]) {
        cur[pos + 1] = &o.mask;  // parent is all-ones: child mask is o's
        w = o.weight;
      } else {
        Bitset::And(*cur[pos], o.mask, &scratch[pos]);
        w = scratch[pos].WeightedCount(local_weights_);
        cur[pos + 1] = &scratch[pos];
      }
      if (w < min_weight || w == 0) continue;
      full_prefix[pos + 1] = full_prefix[pos] && o_full;
      chosen[pos] = &o;
      self(self, pos + 1, w);
    }
  };
  dfs(dfs, 0, group_weight_);
}

template <class Prefetch, class Cb>
void ShapeOptions::EnumerateUnionKeyed(uint64_t min_weight,
                                       size_t max_patterns,
                                       const Prefetch& prefetch,
                                       const Cb& cb) const {
  const size_t n = options_.size();
  // Every option's canonical text, rendered once: `texts` holds them back
  // to back, and option i of position pos is `rendered[first[pos] + i]`,
  // which locates its text and carries the affine key map of its bytes:
  // folding the text into h is h * PolyPow(len) + PolyHashUpdate(0, text).
  struct Rendered {
    size_t begin;
    size_t len;
    uint64_t key_mul;
    uint64_t key_add;
  };
  std::string texts;
  std::vector<Rendered> rendered;
  std::vector<size_t> first(n);
  for (size_t pos = 0; pos < n; ++pos) {
    first[pos] = rendered.size();
    for (const Option& o : options_[pos]) {
      const size_t begin = texts.size();
      AppendAtomText(o.atom, &texts);
      const std::string_view text(texts.data() + begin,
                                  texts.size() - begin);
      rendered.push_back(
          {begin, text.size(), PolyPow(text.size()), PolyHashUpdate(0, text)});
    }
  }

  // Pipeline depth: emissions sit in a ring between key computation (where
  // `prefetch` fires) and delivery to `cb`, overlapping the consumer's
  // cache misses across several independent probes.
  constexpr size_t kPipe = 8;
  struct Emission {
    uint64_t key;
    uint64_t weight;
  };
  Emission ring[kPipe];
  // Per-slot copies of the chosen options' `rendered` indices, so a
  // deferred `name()` sees the choices as of emission time (the DFS keeps
  // mutating its own).
  std::vector<size_t> ring_chosen(kPipe * n);
  size_t head = 0;
  size_t count = 0;

  std::string name_buf;
  const size_t* current = nullptr;
  const auto name = [&]() -> std::string_view {
    name_buf.clear();
    for (size_t pos = 0; pos < n; ++pos) {
      const Rendered& r = rendered[current[pos]];
      name_buf.append(texts.data() + r.begin, r.len);
    }
    return name_buf;
  };
  const auto flush_one = [&] {
    current = &ring_chosen[head * n];
    cb(ring[head].key, ring[head].weight, name);
    head = (head + 1) % kPipe;
    --count;
  };

  UnionDfs(min_weight, max_patterns,
           [&](const std::vector<const Option*>& chosen, uint64_t weight) {
             // Fold the per-option affine maps: one multiply-add per
             // position, no byte streaming. Literal merging does not change
             // the canonical byte stream (merged literals render as the
             // concatenation of their parts), so folding the raw choices
             // equals PatternKey of the merged pattern, and concatenating
             // their texts equals its ToString.
             const size_t tail = (head + count) % kPipe;
             size_t* slot = &ring_chosen[tail * n];
             uint64_t key = kPolySeed;
             for (size_t pos = 0; pos < n; ++pos) {
               const size_t id = first[pos] + static_cast<size_t>(
                                                  chosen[pos] -
                                                  options_[pos].data());
               slot[pos] = id;
               key = key * rendered[id].key_mul + rendered[id].key_add;
             }
             prefetch(key);
             ring[tail] = {key, weight};
             if (++count == kPipe) flush_one();
           });
  while (count > 0) flush_one();
}

}  // namespace av
