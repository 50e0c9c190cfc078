// Invariants of the batched matching engine: the tokenize-once column
// representation, the interned 64-bit pattern keys that rekey the offline
// index, and the determinism of the chunked/sharded BuildIndex.
#include <gtest/gtest.h>

#include <fstream>

#include "common/hash.h"
#include "common/rng.h"
#include "index/indexer.h"
#include "index/pattern_index.h"
#include "pattern/generalize.h"
#include "pattern/matcher.h"
#include "pattern/tokenized_column.h"
#include "tests/test_util.h"

namespace av {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> RandomColumn(Rng& rng, size_t n) {
  // A mix of shapes: dates, ips, codes, floats, empties, non-ASCII.
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Range(0, 6)) {
      case 0:
        out.push_back(std::to_string(rng.Range(1, 12)) + "/" +
                      std::to_string(rng.Range(1, 28)) + "/2019");
        break;
      case 1:
        out.push_back("10.0." + std::to_string(rng.Range(0, 255)) + "." +
                      std::to_string(rng.Range(1, 254)));
        break;
      case 2:
        out.push_back("ID" + std::to_string(rng.Range(100, 9999)));
        break;
      case 3:
        out.push_back(std::to_string(rng.Range(0, 99)) + "." +
                      std::to_string(rng.Range(0, 99)));
        break;
      case 4:
        out.push_back("");
        break;
      default:
        out.push_back("caf\xc3\xa9-" + std::to_string(rng.Range(0, 9)));
        break;
    }
  }
  return out;
}

TEST(TokenizedColumnTest, PreservesValuesTokensAndWeights) {
  const std::vector<std::string> values = {"a1", "b-2", "a1", "", "a1", "b-2"};
  const TokenizedColumn col = TokenizedColumn::Build(values);
  ASSERT_EQ(col.num_distinct(), 3u);
  EXPECT_EQ(col.total_rows(), 6u);
  EXPECT_EQ(col.value(0), "a1");
  EXPECT_EQ(col.weight(0), 3u);
  EXPECT_EQ(col.value(1), "b-2");
  EXPECT_EQ(col.weight(1), 2u);
  EXPECT_EQ(col.value(2), "");
  EXPECT_EQ(col.weight(2), 1u);
  // Tokens agree with tokenizing each value directly.
  for (size_t i = 0; i < col.num_distinct(); ++i) {
    const auto expect = Tokenize(col.value(i));
    const auto got = col.tokens(i);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t t = 0; t < expect.size(); ++t) EXPECT_EQ(got[t], expect[t]);
  }
}

TEST(TokenizedColumnTest, DistinctCapAdmitsPrefixAndKeepsTotals) {
  std::vector<std::string> values;
  for (int i = 0; i < 10; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    values.push_back(v);
    values.push_back(std::move(v));  // weight 2 each
  }
  const TokenizedColumn col = TokenizedColumn::Build(values, /*max_distinct=*/4);
  EXPECT_EQ(col.num_distinct(), 4u);
  EXPECT_EQ(col.total_rows(), 20u);
  EXPECT_EQ(col.admitted_rows(), 8u);  // 4 admitted distinct values x 2 rows
  for (size_t i = 0; i < col.num_distinct(); ++i) {
    EXPECT_EQ(col.value(i), std::string("v") + std::to_string(i).c_str());  // first-seen prefix
    EXPECT_EQ(col.weight(i), 2u);
  }
  // Duplicate rows of an ADMITTED value arriving after the cap still count.
  std::vector<std::string> tail = values;
  tail.push_back("v0");
  const TokenizedColumn col2 = TokenizedColumn::Build(tail, 4);
  EXPECT_EQ(col2.weight(0), 3u);
  EXPECT_EQ(col2.admitted_rows(), 9u);
}

TEST(TokenizedColumnTest, ProfileSharesTokenizedRepresentation) {
  // ColumnProfile is a shape-grouping layer over the same TokenizedColumn
  // representation the online validate path uses.
  const std::vector<std::string> values = {"10.0.0.1", "10.0.0.2", "n/a"};
  GeneralizeConfig cfg;
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  const TokenizedColumn& col = profile.column();
  ASSERT_EQ(col.num_distinct(), 3u);
  for (size_t i = 0; i < col.num_distinct(); ++i) {
    EXPECT_EQ(profile.value(i), col.value(i));
    EXPECT_EQ(profile.tokens(i).data(), col.tokens(i).data());  // same arena
    EXPECT_EQ(profile.weight(i), col.weight(i));
  }
  EXPECT_EQ(profile.total_weight(), col.total_rows());
}

TEST(BatchMatchTest, BatchAgreesWithScalarOnRandomizedColumns) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const std::vector<std::string> values = RandomColumn(rng, 60);
    const TokenizedColumn col = TokenizedColumn::Build(values);
    // Patterns generated from the column itself plus hand-picked ones that
    // exercise the backtracking (<num>, <any>+) and reject paths.
    std::vector<Pattern> patterns;
    for (auto& gp : GeneratePatterns(values)) {
      patterns.push_back(std::move(gp.pattern));
    }
    for (const char* text :
         {"<num>", "<num>.<num>", "<any>+", "10.<any>+", "<digit>{2}",
          "ID<digit>+", "<letter>+-<digit>{1}", "x<other>+y"}) {
      patterns.push_back(*Pattern::Parse(text));
    }
    for (const Pattern& p : patterns) {
      const size_t scalar = CountMatches(p, values);
      EXPECT_EQ(CountMatches(p, col), scalar) << p.ToString();
      EXPECT_NEAR(Impurity(p, col), Impurity(p, values), 1e-12)
          << p.ToString();
    }
  }
}

TEST(BatchMatchTest, PatternMatcherReuseMatchesFreshMatcher) {
  // One matcher instance driven over many values (memo reused across calls)
  // must agree with one-shot Matches.
  Rng rng(7);
  const std::vector<std::string> values = RandomColumn(rng, 200);
  const Pattern p = *Pattern::Parse("<num>.<num>");
  PatternMatcher reused(p);
  for (const auto& v : values) {
    EXPECT_EQ(reused.Matches(v), Matches(p, v)) << v;
  }
}

TEST(PatternKeyTest, EqualsPolyHashOfCanonicalString) {
  // The interned key must equal PolyHash64 of ToString() byte-for-byte so
  // pattern-keyed and string-keyed index probes are interchangeable.
  for (const char* text :
       {"<digit>{3}", "<digit>+", "<num>", "<letter>{12}", "<lower>+",
        "<upper>{2}", "<alnum>{8}", "<other>+", "<any>+",
        "Mar <digit>{2} <digit>{4}", "a\\<b\\\\c",
        "<digit>+/<digit>+/<digit>{4} <digit>+:<digit>{2}:<digit>{2}"}) {
    const Pattern p = *Pattern::Parse(text);
    EXPECT_EQ(PatternKey(p), PolyHash64(p.ToString())) << text;
  }
  // And on generated patterns, which exercise literal merging.
  Rng rng(3);
  const std::vector<std::string> values = RandomColumn(rng, 80);
  for (const auto& gp : GeneratePatterns(values)) {
    EXPECT_EQ(PatternKey(gp.pattern), PolyHash64(gp.pattern.ToString()))
        << gp.pattern.ToString();
  }
}

TEST(PatternIndexTest, KeyedAndStringLookupsAgree) {
  PatternIndex idx;
  const Pattern p = *Pattern::Parse("<digit>+.<digit>+");
  idx.AddKeyed(PatternKey(p), 0.25, [&] { return p.ToString(); });
  idx.AddKeyed(PatternKey(p), 0.75, [&] { return p.ToString(); });
  const auto by_pattern = idx.Lookup(p);
  const auto by_key = idx.Lookup(PatternKey(p));
  const auto by_string = idx.Lookup(p.ToString());
  ASSERT_TRUE(by_pattern.has_value());
  ASSERT_TRUE(by_key.has_value());
  ASSERT_TRUE(by_string.has_value());
  EXPECT_EQ(by_pattern->coverage, 2u);
  EXPECT_DOUBLE_EQ(by_pattern->fpr, 0.5);
  EXPECT_EQ(by_key->coverage, by_pattern->coverage);
  EXPECT_EQ(by_string->coverage, by_pattern->coverage);
}

TEST(PatternIndexTest, SaveLoadRoundTripPreservesKeyedLookups) {
  const Corpus corpus = testutil::SmallLake(60, 11);
  IndexerConfig cfg;
  cfg.num_threads = 2;
  const PatternIndex idx = BuildIndex(corpus, cfg);
  ASSERT_GT(idx.size(), 0u);

  const ScopedTempDir dir = testutil::MakeTempDir();
  const std::string path = dir.File("roundtrip.bin");
  ASSERT_TRUE(idx.Save(path).ok());
  auto loaded = PatternIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), idx.size());

  size_t checked = 0;
  idx.ForEach([&](const std::string& key, const PatternIndex::Entry& e) {
    // String probe and pattern-key probe must both survive the roundtrip.
    const auto by_string = loaded->Lookup(key);
    ASSERT_TRUE(by_string.has_value()) << key;
    EXPECT_EQ(by_string->coverage, e.columns);
    auto parsed = Pattern::Parse(key);
    ASSERT_TRUE(parsed.ok()) << key;
    const auto by_key = loaded->Lookup(PatternKey(*parsed));
    ASSERT_TRUE(by_key.has_value()) << key;
    EXPECT_EQ(by_key->coverage, e.columns);
    ++checked;
  });
  EXPECT_EQ(checked, idx.size());
}

TEST(PatternIndexTest, LoadRejectsHugeEntryCount) {
  // A corrupt header with an absurd n must fail cleanly (clamped by file
  // size) instead of reserving unbounded memory.
  const ScopedTempDir dir = testutil::MakeTempDir();
  const std::string path = dir.File("huge_count.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("AVIDX002", 8);
    const uint64_t n = ~0ULL;
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  auto loaded = PatternIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(IndexerTest, BuildIndexIsByteIdenticalAcrossThreadCounts) {
  const Corpus corpus = testutil::SmallLake(150, 21);
  const ScopedTempDir dir = testutil::MakeTempDir();
  std::vector<std::string> files;
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    IndexerConfig cfg;
    cfg.num_threads = threads;
    const PatternIndex idx = BuildIndex(corpus, cfg);
    const std::string path =
        dir.File("det_" + std::to_string(threads) + ".bin");
    ASSERT_TRUE(idx.Save(path).ok());
    files.push_back(path);
  }
  const std::string reference = ReadFileBytes(files[0]);
  ASSERT_FALSE(reference.empty());
  for (size_t i = 1; i < files.size(); ++i) {
    EXPECT_EQ(ReadFileBytes(files[i]), reference)
        << "index bytes differ between 1 thread and " << files[i];
  }
}

}  // namespace
}  // namespace av
