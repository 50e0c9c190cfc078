// Persistent ordered map: copies share structure, and a write copies only
// the root-to-leaf path it changes.
//
// The map is a B+ tree of immutable nodes held by shared_ptr. Copying a map
// copies its root pointer; Set and Erase build new nodes for the path they
// change and share every other node with the copies made before, so an
// earlier copy keeps seeing exactly the entries it had. This is how
// ValidationService publishes its rule store: every store generation is one
// copy, and storing one rule costs O(log n) node copies instead of a copy of
// the whole store.
//
//   PersistentMap<std::string, int> a;
//   a.Set("x", 1);
//   PersistentMap<std::string, int> b = a;  // shares every node with `a`
//   b.Set("y", 2);                          // `a` still holds only "x"
//
// Shape: every node below the root holds between kWidth / 2 and kWidth
// entries (items in a leaf, children in an internal node) and all leaves are
// at one depth, so depth stays logarithmic under any mix of writes. An
// internal node with children c[0..k] holds k separator keys s[0..k-1], and
// every key under c[i] lies in [s[i-1], s[i]). Iteration walks the leaves
// in key order; a leaf's items are contiguous.
//
// A map object is a value: concurrent writes to ONE object need a lock, as
// for any value type. Distinct copies may be read and written from any
// threads, since nodes are never mutated once shared and their reference
// counts are atomic.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace av {

/// Ordered map from K to V with O(1) copies (see file comment). K must be
/// default-constructible; Compare must order K (and any key type passed to
/// Find and Erase) strictly.
template <typename K, typename V, typename Compare = std::less<>,
          size_t kWidth = 32>
class PersistentMap {
  static_assert(kWidth >= 4, "a split node must keep at least 2 entries");

  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  static constexpr size_t kMinWidth = kWidth / 2;

 public:
  /// Entries are handed out only as const, so the key cannot change.
  using value_type = std::pair<K, V>;
  class const_iterator;

  PersistentMap() = default;

  /// Builds a map from entries in strictly increasing key order, level by
  /// level: no path copy per entry, every node as full as an even split
  /// allows.
  static PersistentMap FromSorted(std::vector<value_type> items);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The value stored under `key`, or null. Allocates nothing. The pointer
  /// stays valid while this map is neither written nor destroyed.
  template <typename Key>
  const V* Find(const Key& key) const {
    if (root_ == nullptr) return nullptr;
    const Node* node = root_.get();
    while (!node->leaf()) node = node->children[ChildIndex(*node, key)].get();
    const auto it = LowerBound(node->items, key);
    return it != node->items.end() && !Less(key, it->first) ? &it->second
                                                              : nullptr;
  }

  /// Stores `value` under `key`, replacing any previous value. Returns true
  /// when the key is new.
  bool Set(K key, V value) {
    if (root_ == nullptr) {
      auto leaf = std::make_shared<Node>();
      leaf->items.emplace_back(std::move(key), std::move(value));
      root_ = std::move(leaf);
      size_ = 1;
      return true;
    }
    bool added = false;
    Written w = SetIn(*root_, std::move(key), std::move(value), &added);
    if (w.upper == nullptr) {
      root_ = std::move(w.node);
    } else {
      auto root = std::make_shared<Node>();
      root->keys.push_back(std::move(w.upper_low));
      root->children.push_back(std::move(w.node));
      root->children.push_back(std::move(w.upper));
      root_ = std::move(root);
    }
    size_ += added ? 1 : 0;
    return added;
  }

  /// Removes `key`. Returns false, and changes nothing, when it is absent.
  template <typename Key>
  bool Erase(const Key& key) {
    if (root_ == nullptr) return false;
    std::shared_ptr<Node> root = EraseIn(*root_, key);
    if (root == nullptr) return false;
    --size_;
    if (root->leaf() && root->items.empty()) {
      root_ = nullptr;
    } else if (!root->leaf() && root->children.size() == 1) {
      root_ = root->children.front();  // the tree loses a level
    } else {
      root_ = std::move(root);
    }
    return true;
  }

  const_iterator begin() const { return const_iterator(root_.get()); }
  const_iterator end() const { return const_iterator(); }

  /// Checks the tree's shape: key order, separator bounds, node widths,
  /// one leaf depth and the entry count. For tests.
  bool CheckInvariants() const {
    if (root_ == nullptr) return size_ == 0;
    size_t count = 0;
    size_t leaf_depth = 0;
    return Check(*root_, nullptr, nullptr, /*depth=*/1, &leaf_depth,
                 &count) &&
           count == size_;
  }

 private:
  struct Node {
    /// Leaf entries in key order; empty in an internal node.
    std::vector<value_type> items;
    /// Internal node: children.size() == keys.size() + 1 (see file comment).
    /// Both are empty in a leaf.
    std::vector<K> keys;
    std::vector<NodePtr> children;

    bool leaf() const { return children.empty(); }
    size_t width() const { return leaf() ? items.size() : children.size(); }
  };

  /// Internal levels of the deepest possible tree: with d of them a tree
  /// holds at least 2 * kMinWidth^d entries, and size() is a size_t.
  static constexpr size_t kMaxDepth = [] {
    size_t depth = 1;
    for (size_t least = 2 * kMinWidth; least <= SIZE_MAX / kMinWidth;
         least *= kMinWidth) {
      ++depth;
    }
    return depth;
  }();

  /// A subtree after a write: its new root and, when that overflowed, the
  /// upper half split off and the smallest key bound of that half.
  struct Written {
    NodePtr node;
    NodePtr upper = nullptr;
    K upper_low{};
  };

  template <typename A, typename B>
  static bool Less(const A& a, const B& b) {
    return Compare()(a, b);
  }

  template <typename Key>
  static typename std::vector<value_type>::const_iterator LowerBound(
      const std::vector<value_type>& items, const Key& key) {
    return std::lower_bound(items.begin(), items.end(), key,
                            [](const value_type& item, const Key& k) {
                              return Less(item.first, k);
                            });
  }

  /// Index of the child whose key range holds `key`.
  template <typename Key>
  static size_t ChildIndex(const Node& node, const Key& key) {
    return static_cast<size_t>(
        std::upper_bound(
            node.keys.begin(), node.keys.end(), key,
            [](const Key& k, const K& sep) { return Less(k, sep); }) -
        node.keys.begin());
  }

  /// A private copy of `node` with room for one more entry.
  static std::shared_ptr<Node> Copy(const Node& node) {
    auto copy = std::make_shared<Node>();
    if (node.leaf()) {
      copy->items.reserve(node.items.size() + 1);
      copy->items.insert(copy->items.end(), node.items.begin(),
                         node.items.end());
    } else {
      copy->keys.reserve(node.keys.size() + 1);
      copy->keys.insert(copy->keys.end(), node.keys.begin(), node.keys.end());
      copy->children.reserve(node.children.size() + 1);
      copy->children.insert(copy->children.end(), node.children.begin(),
                            node.children.end());
    }
    return copy;
  }

  /// Moves the upper half of `node`'s entries into a new sibling.
  static Written Split(std::shared_ptr<Node> node) {
    auto upper = std::make_shared<Node>();
    const size_t half = node->width() / 2;
    K upper_low;
    if (node->leaf()) {
      upper->items.assign(std::make_move_iterator(node->items.begin() + half),
                          std::make_move_iterator(node->items.end()));
      node->items.erase(node->items.begin() + half, node->items.end());
      upper_low = upper->items.front().first;
    } else {
      // Separator half - 1 divides the halves: it moves up to the parent.
      upper->children.assign(
          std::make_move_iterator(node->children.begin() + half),
          std::make_move_iterator(node->children.end()));
      node->children.erase(node->children.begin() + half,
                           node->children.end());
      upper_low = std::move(node->keys[half - 1]);
      upper->keys.assign(std::make_move_iterator(node->keys.begin() + half),
                         std::make_move_iterator(node->keys.end()));
      node->keys.erase(node->keys.begin() + (half - 1), node->keys.end());
    }
    return {std::move(node), std::move(upper), std::move(upper_low)};
  }

  static Written SetIn(const Node& node, K&& key, V&& value, bool* added) {
    std::shared_ptr<Node> copy = Copy(node);
    if (node.leaf()) {
      auto it = copy->items.begin() + (LowerBound(node.items, key) -
                                       node.items.begin());
      if (it != copy->items.end() && !Less(key, it->first)) {
        it->second = std::move(value);
        return {std::move(copy)};
      }
      copy->items.emplace(it, std::move(key), std::move(value));
      *added = true;
    } else {
      const size_t i = ChildIndex(node, key);
      Written w = SetIn(*node.children[i], std::move(key), std::move(value),
                        added);
      copy->children[i] = std::move(w.node);
      if (w.upper != nullptr) {
        copy->children.insert(copy->children.begin() + (i + 1),
                              std::move(w.upper));
        copy->keys.insert(copy->keys.begin() + i, std::move(w.upper_low));
      }
    }
    if (copy->width() <= kWidth) return {std::move(copy)};
    return Split(std::move(copy));
  }

  /// `node` without `key` (possibly one entry short of kMinWidth), or null
  /// when `key` is absent.
  template <typename Key>
  static std::shared_ptr<Node> EraseIn(const Node& node, const Key& key) {
    if (node.leaf()) {
      const auto it = LowerBound(node.items, key);
      if (it == node.items.end() || Less(key, it->first)) return nullptr;
      auto copy = std::make_shared<Node>();
      copy->items.reserve(node.items.size() - 1);
      copy->items.insert(copy->items.end(), node.items.begin(), it);
      copy->items.insert(copy->items.end(), it + 1, node.items.end());
      return copy;
    }
    const size_t i = ChildIndex(node, key);
    std::shared_ptr<Node> child = EraseIn(*node.children[i], key);
    if (child == nullptr) return nullptr;
    std::shared_ptr<Node> copy = Copy(node);
    if (child->width() >= kMinWidth) {
      copy->children[i] = std::move(child);
      return copy;
    }
    // Too small: pool it with a sibling and the separator between them,
    // then keep the pool as one node or split it evenly in two.
    const size_t l = i > 0 ? i - 1 : 0;
    const Node& left = l == i ? *child : *node.children[l];
    const Node& right = l == i ? *node.children[l + 1] : *child;
    auto pool = std::make_shared<Node>();
    if (left.leaf()) {
      pool->items.reserve(left.items.size() + right.items.size());
      pool->items.insert(pool->items.end(), left.items.begin(),
                         left.items.end());
      pool->items.insert(pool->items.end(), right.items.begin(),
                         right.items.end());
    } else {
      pool->keys.reserve(left.keys.size() + 1 + right.keys.size());
      pool->keys.insert(pool->keys.end(), left.keys.begin(), left.keys.end());
      pool->keys.push_back(node.keys[l]);
      pool->keys.insert(pool->keys.end(), right.keys.begin(), right.keys.end());
      pool->children.reserve(left.children.size() + right.children.size());
      pool->children.insert(pool->children.end(), left.children.begin(),
                            left.children.end());
      pool->children.insert(pool->children.end(), right.children.begin(),
                            right.children.end());
    }
    if (pool->width() <= kWidth) {
      copy->children[l] = std::move(pool);
      copy->children.erase(copy->children.begin() + (l + 1));
      copy->keys.erase(copy->keys.begin() + l);
    } else {
      Written halves = Split(std::move(pool));
      copy->children[l] = std::move(halves.node);
      copy->children[l + 1] = std::move(halves.upper);
      copy->keys[l] = std::move(halves.upper_low);
    }
    return copy;
  }

  static bool Check(const Node& node, const K* low, const K* high,
                    size_t depth, size_t* leaf_depth, size_t* count) {
    const bool root = depth == 1;
    const size_t width = node.width();
    if (width > kWidth || width < (root ? 1 : kMinWidth)) return false;
    const auto in_bounds = [&](const K& key) {
      return (low == nullptr || !Less(key, *low)) &&
             (high == nullptr || Less(key, *high));
    };
    if (node.leaf()) {
      if (!node.keys.empty()) return false;
      if (*leaf_depth == 0) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      for (size_t i = 0; i < width; ++i) {
        if (!in_bounds(node.items[i].first)) return false;
        if (i > 0 && !Less(node.items[i - 1].first, node.items[i].first)) {
          return false;
        }
      }
      *count += width;
      return true;
    }
    if (!node.items.empty() || node.keys.size() + 1 != width ||
        (root && width < 2)) {
      return false;
    }
    for (size_t i = 0; i < width; ++i) {
      if (i + 1 < width && !in_bounds(node.keys[i])) return false;
      if (i > 0 && i + 1 < width && !Less(node.keys[i - 1], node.keys[i])) {
        return false;
      }
      if (node.children[i] == nullptr ||
          !Check(*node.children[i], i == 0 ? low : &node.keys[i - 1],
                 i + 1 == width ? high : &node.keys[i], depth + 1, leaf_depth,
                 count)) {
        return false;
      }
    }
    return true;
  }

  NodePtr root_;
  size_t size_ = 0;
};

/// In-order iterator. It holds raw node pointers: the map it came from must
/// outlive it, unwritten.
template <typename K, typename V, typename Compare, size_t kWidth>
class PersistentMap<K, V, Compare, kWidth>::const_iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = PersistentMap::value_type;
  using difference_type = std::ptrdiff_t;
  using pointer = const value_type*;
  using reference = const value_type&;

  const_iterator() = default;

  reference operator*() const { return leaf_->items[pos_]; }
  pointer operator->() const { return &leaf_->items[pos_]; }

  const_iterator& operator++() {
    if (++pos_ < leaf_->items.size()) return *this;
    // Past the leaf: climb to the nearest ancestor with a next child, then
    // go down that child's leftmost path.
    while (depth_ > 0) {
      auto& [node, child] = path_[depth_ - 1];
      if (++child < node->children.size()) {
        Descend(node->children[child].get());
        return *this;
      }
      --depth_;
    }
    leaf_ = nullptr;
    pos_ = 0;
    return *this;
  }
  const_iterator operator++(int) {
    const_iterator before = *this;
    ++*this;
    return before;
  }

  bool operator==(const const_iterator& other) const {
    return leaf_ == other.leaf_ && pos_ == other.pos_;
  }

 private:
  friend class PersistentMap;

  explicit const_iterator(const Node* root) {
    if (root != nullptr) Descend(root);
  }

  /// Goes down to the first entry under `node`.
  void Descend(const Node* node) {
    while (!node->leaf()) {
      path_[depth_++] = {node, 0};
      node = node->children.front().get();
    }
    leaf_ = node;
    pos_ = 0;
  }

  /// The internal nodes above the leaf and the child taken in each.
  std::array<std::pair<const Node*, size_t>, kMaxDepth> path_{};
  size_t depth_ = 0;
  const Node* leaf_ = nullptr;  ///< null at end()
  size_t pos_ = 0;
};

template <typename K, typename V, typename Compare, size_t kWidth>
PersistentMap<K, V, Compare, kWidth>
PersistentMap<K, V, Compare, kWidth>::FromSorted(
    std::vector<value_type> items) {
  PersistentMap map;
  map.size_ = items.size();
  if (items.empty()) return map;
  // Each level splits its entries evenly over the fewest nodes that hold
  // them, so every node but a lone root gets at least kMinWidth.
  const auto node_count = [](size_t entries) {
    return (entries + kWidth - 1) / kWidth;
  };
  std::vector<NodePtr> level;
  std::vector<const K*> lows;  ///< smallest key under each node of `level`
  const size_t leaves = node_count(items.size());
  for (size_t j = 0, begin = 0; j < leaves; ++j) {
    const size_t end = items.size() * (j + 1) / leaves;
    auto leaf = std::make_shared<Node>();
    leaf->items.assign(std::make_move_iterator(items.begin() + begin),
                       std::make_move_iterator(items.begin() + end));
    lows.push_back(&leaf->items.front().first);
    level.push_back(std::move(leaf));
    begin = end;
  }
  while (level.size() > 1) {
    const size_t parents = node_count(level.size());
    std::vector<NodePtr> up;
    std::vector<const K*> up_lows;
    for (size_t j = 0, begin = 0; j < parents; ++j) {
      const size_t end = level.size() * (j + 1) / parents;
      auto node = std::make_shared<Node>();
      for (size_t c = begin; c < end; ++c) {
        if (c > begin) node->keys.push_back(*lows[c]);
        node->children.push_back(std::move(level[c]));
      }
      up_lows.push_back(lows[begin]);
      up.push_back(std::move(node));
      begin = end;
    }
    level = std::move(up);
    lows = std::move(up_lows);
  }
  map.root_ = std::move(level.front());
  return map;
}

}  // namespace av
