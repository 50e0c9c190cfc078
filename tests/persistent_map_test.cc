// PersistentMap tests: random writes checked against a std::map model after
// every operation, every earlier copy checked against its own copy of the
// model (a write must never change a node another copy can see), bulk
// builds, and structural sharing between copies.
#include "common/persistent_map.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace av {
namespace {

using Model = std::map<std::string, int, std::less<>>;
/// Width 4 makes small maps several levels deep, so splits, merges and
/// borrows happen at every level within a few hundred keys.
using NarrowMap = PersistentMap<std::string, int, std::less<>, 4>;
using WideMap = PersistentMap<std::string, int>;

/// Key `i` of the test key space; every fifth key is too long for the
/// small-string buffer.
std::string Key(uint64_t i) {
  std::string key = std::to_string(1000 + i);
  if (i % 5 == 0) key.append("-with-a-heap-allocated-suffix");
  return key;
}

template <typename Map>
::testing::AssertionResult MatchesModel(const Map& map, const Model& model) {
  if (!map.CheckInvariants()) {
    return ::testing::AssertionFailure() << "tree invariants broken";
  }
  if (map.size() != model.size() || map.empty() != model.empty()) {
    return ::testing::AssertionFailure()
           << "size " << map.size() << ", model " << model.size();
  }
  auto it = map.begin();
  for (const auto& [key, value] : model) {
    if (it == map.end()) {
      return ::testing::AssertionFailure() << "iteration ends before " << key;
    }
    if (it->first != key || it->second != value) {
      return ::testing::AssertionFailure()
             << "iteration yields " << it->first << "=" << it->second
             << ", model " << key << "=" << value;
    }
    const int* found = map.Find(key);
    if (found == nullptr || *found != value) {
      return ::testing::AssertionFailure() << "Find misses " << key;
    }
    ++it;
  }
  if (it != map.end()) {
    return ::testing::AssertionFailure() << "extra entry " << it->first;
  }
  return ::testing::AssertionSuccess();
}

/// Find agrees with the model on every key of the key space, absent ones
/// included.
template <typename Map>
::testing::AssertionResult FindMatchesModel(const Map& map, const Model& model,
                                            uint64_t key_space) {
  for (uint64_t i = 0; i < key_space; ++i) {
    const std::string key = Key(i);
    const auto want = model.find(key);
    const int* got = map.Find(std::string_view(key));
    if ((want == model.end()) != (got == nullptr) ||
        (got != nullptr && *got != want->second)) {
      return ::testing::AssertionFailure() << "Find disagrees on " << key;
    }
  }
  return ::testing::AssertionSuccess();
}

void Shuffle(std::vector<uint64_t>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
}

/// Runs `ops` random writes, each a single Set or Erase or a batch of them
/// on one copy, and checks the map and every earlier copy after each one.
template <typename Map>
void RunModelCheck(uint64_t seed, uint64_t key_space, size_t ops) {
  Rng rng(seed);
  Map map;
  Model model;
  std::vector<std::pair<Map, Model>> history;
  for (size_t op = 0; op < ops; ++op) {
    const uint64_t kind = rng.Below(10);
    const size_t writes = kind == 9 ? 1 + rng.Below(12) : 1;
    for (size_t w = 0; w < writes; ++w) {
      const std::string key = Key(rng.Below(key_space));
      // Inserts outnumber erases, so the map grows and then churns.
      if (kind < 6 || (kind == 9 && rng.Below(3) != 0)) {
        const int value = static_cast<int>(rng.Below(1000000));
        const bool added = map.Set(key, value);
        EXPECT_EQ(added, model.count(key) == 0) << key;
        model[key] = value;
      } else {
        const bool erased = map.Erase(key);
        EXPECT_EQ(erased, model.erase(key) == 1) << key;
      }
    }
    ASSERT_TRUE(MatchesModel(map, model)) << "after op " << op;
    ASSERT_TRUE(FindMatchesModel(map, model, key_space)) << "after op " << op;
    for (size_t h = 0; h < history.size(); ++h) {
      ASSERT_TRUE(MatchesModel(history[h].first, history[h].second))
          << "copy " << h << " changed by op " << op;
    }
    history.emplace_back(map, model);
  }
}

TEST(PersistentMapTest, EmptyMap) {
  NarrowMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.begin() == map.end());
  EXPECT_EQ(map.Find("x"), nullptr);
  EXPECT_FALSE(map.Erase("x"));
  EXPECT_TRUE(map.CheckInvariants());
  EXPECT_TRUE(MatchesModel(NarrowMap::FromSorted({}), Model{}));
}

TEST(PersistentMapTest, NarrowNodesMatchModelAndKeepEveryCopy) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    RunModelCheck<NarrowMap>(seed, /*key_space=*/64, /*ops=*/200);
  }
}

TEST(PersistentMapTest, WideNodesMatchModelAndKeepEveryCopy) {
  RunModelCheck<WideMap>(7, /*key_space=*/300, /*ops=*/200);
}

TEST(PersistentMapTest, GrowsAndShrinksThroughManyLevels) {
  // Fill past four levels of width-4 nodes, then empty it again, in a
  // shuffled order each way.
  constexpr uint64_t kKeys = 600;
  std::vector<uint64_t> order(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) order[i] = i;
  Rng rng(3);
  Shuffle(order, rng);
  NarrowMap map;
  Model model;
  for (uint64_t i : order) {
    map.Set(Key(i), static_cast<int>(i));
    model[Key(i)] = static_cast<int>(i);
    ASSERT_TRUE(map.CheckInvariants()) << i;
  }
  ASSERT_TRUE(MatchesModel(map, model));
  Shuffle(order, rng);
  for (uint64_t i : order) {
    ASSERT_TRUE(map.Erase(Key(i)));
    model.erase(Key(i));
    ASSERT_TRUE(map.CheckInvariants()) << i;
  }
  EXPECT_TRUE(MatchesModel(map, model));
  EXPECT_TRUE(map.empty());
}

TEST(PersistentMapTest, FromSortedMatchesIncrementalInserts) {
  for (uint64_t n = 0; n <= 300; n += (n < 40 ? 1 : 37)) {
    Model model;
    for (uint64_t i = 0; i < n; ++i) model[Key(i)] = static_cast<int>(i);
    std::vector<NarrowMap::value_type> items(model.begin(), model.end());
    NarrowMap built = NarrowMap::FromSorted(std::move(items));
    ASSERT_TRUE(MatchesModel(built, model)) << n;
    // A bulk-built map takes later writes like any other.
    NarrowMap edited = built;
    edited.Set(Key(n + 1), -1);
    if (n > 0) edited.Erase(Key(n / 2));
    Model edited_model = model;
    edited_model[Key(n + 1)] = -1;
    if (n > 0) edited_model.erase(Key(n / 2));
    ASSERT_TRUE(MatchesModel(edited, edited_model)) << n;
    ASSERT_TRUE(MatchesModel(built, model)) << n;
  }
}

TEST(PersistentMapTest, WriteCopiesOnlyItsPath) {
  WideMap map;
  for (uint64_t i = 0; i < 5000; ++i) map.Set(Key(i), static_cast<int>(i));
  WideMap copy = map;
  copy.Set(Key(2500), -1);
  // Entries of untouched leaves sit at the same address in both copies;
  // only the rewritten leaf's entries (at most one node's worth) moved.
  size_t moved = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    moved += map.Find(Key(i)) != copy.Find(Key(i)) ? 1 : 0;
  }
  EXPECT_GE(moved, 1u);
  EXPECT_LE(moved, 32u);
  EXPECT_EQ(*map.Find(Key(2500)), 2500);
  EXPECT_EQ(*copy.Find(Key(2500)), -1);
}

}  // namespace
}  // namespace av
