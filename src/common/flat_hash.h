// Open-addressing hash map from pre-mixed 64-bit keys to inline values.
//
// Built for the pattern index: keys are hash outputs (PolyHash64 pattern
// keys, FNV-1a value fingerprints — already uniformly distributed), so the
// table hashes by identity into a power-of-two slot array with linear
// probing. Values live inline in the slots — inserting
// never allocates per entry, and growth moves values instead of re-linking
// nodes. This is what makes the offline job's accumulate/merge phases cheap
// compared to a node-based std::unordered_map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace av {

/// Map from uniformly-distributed 64-bit keys to V. V must be
/// default-constructible and movable. Max load factor 5/8.
template <class V>
class U64FlatMap {
 public:
  U64FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }
  /// Heap bytes held: every slot plus its occupancy byte, used or not.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) + used_.capacity();
  }

  void clear() {
    slots_.clear();
    used_.clear();
    size_ = 0;
    mask_ = 0;
  }

  /// Pre-sizes the table for `n` entries (one rehash instead of many).
  void reserve(size_t n) {
    size_t cap = 16;
    while (cap * 5 < n * 8) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Returns (pointer to the value for `key`, true if newly inserted).
  /// The pointer stays valid until the next insert or rehash.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 5) {
      // Doubling keeps a grown table at least 5/16 full, so its slot bytes
      // stay within ~3x its entries.
      Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    size_t i = key & mask_;
    while (used_[i]) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Hints the CPU to pull `key`'s home slot into cache ahead of a probe
  /// (used by the indexer's software-pipelined emission loop).
  void Prefetch(uint64_t key) const {
    if (slots_.empty()) return;
    const size_t i = key & mask_;
    __builtin_prefetch(&used_[i]);
    __builtin_prefetch(&slots_[i]);
  }

  const V* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    size_t i = key & mask_;
    while (used_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  /// Iterates (key, const value&) over all entries, slot order.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Iterates (key, value&&) over all entries, then clears the map — the
  /// merge phase steals values without copying. `announce(key)` fires
  /// kConsumeLookahead occupied entries before `fn` sees that key, so a
  /// consumer merging into another table can prefetch its destination
  /// slots (pass a no-op to skip).
  static constexpr size_t kConsumeLookahead = 8;
  template <class Announce, class Fn>
  void ConsumePipelined(Announce&& announce, Fn&& fn) {
    size_t ahead = 0;  // occupied entries announced but not yet consumed
    size_t j = 0;      // lookahead finger
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!used_[i]) continue;
      while (ahead < kConsumeLookahead && j < slots_.size()) {
        if (used_[j]) {
          announce(slots_[j].key);
          ++ahead;
        }
        ++j;
      }
      fn(slots_[i].key, std::move(slots_[i].value));
      --ahead;
    }
    clear();
  }

 private:
  struct Slot {
    uint64_t key = 0;
    V value{};
  };

 public:
  /// Bytes per slot (key plus inline value), for layout assertions.
  static constexpr size_t kSlotBytes = sizeof(Slot);

 private:
  void Rehash(size_t cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_ = std::vector<Slot>(cap);
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      size_t j = old_slots[i].key & mask_;
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> used_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace av
