#include "pattern/generalize.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/hash.h"
#include "common/rng.h"
#include "pattern/matcher.h"

namespace av {
namespace {

std::vector<std::string> MonthColumn() {
  // Figure 2's C1: all values from March 2019.
  std::vector<std::string> values;
  for (int d = 1; d <= 28; ++d) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "Mar %02d 2019", d);
    values.push_back(buf);
  }
  return values;
}

TEST(ColumnProfileTest, GroupsByShape) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"1/2/2019", "11/22/2020",
                                           "Delivered", "3/4/2021"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 2u);
  EXPECT_EQ(profile.shapes()[0].weight, 3u);  // dominant first
  EXPECT_EQ(profile.shapes()[1].weight, 1u);
  EXPECT_EQ(profile.total_weight(), 4u);
}

TEST(ColumnProfileTest, CountsDuplicates) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"a", "a", "a", "b"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  EXPECT_EQ(profile.shapes()[0].weight, 4u);
  EXPECT_EQ(profile.num_distinct(), 2u);
}

TEST(ColumnProfileTest, EmptyValuesExcludedFromShapes) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"a", "", "b"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  EXPECT_EQ(profile.shapes()[0].weight, 2u);
  EXPECT_EQ(profile.total_weight(), 3u);  // empty counted in total
}

TEST(ColumnProfileTest, DistinctCapFeedsTotalsOnly) {
  GeneralizeConfig cfg;
  cfg.max_distinct_values = 4;
  std::vector<std::string> values;
  for (int i = 0; i < 10; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    values.push_back(std::move(v));
  }
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  EXPECT_EQ(profile.num_distinct(), 4u);
  EXPECT_EQ(profile.total_weight(), 10u);
}

TEST(ColumnProfileTest, OverTokenLimitFlagged) {
  GeneralizeConfig cfg;
  cfg.max_tokens = 3;
  const std::vector<std::string> values = {"a b c d e"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  EXPECT_TRUE(profile.shapes()[0].over_token_limit);
}

TEST(HypothesisTest, IntersectionOptionsForC1) {
  // H(C) for the March column must contain the ideal validation pattern
  // "<letter>{3} <digit>{2} <digit>{4}" and the profiling pattern
  // "Mar <digit>{2} 2019" (both consistent with every value).
  GeneralizeConfig cfg;
  const auto values = MonthColumn();
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  ShapeOptions options(profile, profile.shapes()[0], cfg);

  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<letter>{3} <digit>{2} <digit>{4}"))
      << "ideal validation pattern missing from H(C)";
  EXPECT_TRUE(hypotheses.count("Mar <digit>{2} 2019"))
      << "profiling pattern missing from H(C)";
  EXPECT_TRUE(hypotheses.count("Mar <digit>+ <digit>+"));
  // Patterns inconsistent with the data must be absent.
  EXPECT_FALSE(hypotheses.count("Apr <digit>{2} <digit>{4}"));
}

TEST(HypothesisTest, EveryHypothesisMatchesEveryValue) {
  GeneralizeConfig cfg;
  const auto values = MonthColumn();
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  size_t count = 0;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    ++count;
    for (const auto& v : values) {
      ASSERT_TRUE(Matches(p, v)) << p.ToString() << " vs " << v;
    }
  });
  EXPECT_GT(count, 4u);
}

TEST(HypothesisTest, MixedChunksUseAlnumLadder) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"1a2b-99", "7777-12", "abcd-34"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<alnum>{4}-<digit>{2}"));
  EXPECT_TRUE(hypotheses.count("<alnum>+-<digit>+"));
  // Pure-class ladders cannot cover the mixed position.
  EXPECT_FALSE(hypotheses.count("<digit>{4}-<digit>{2}"));
}

TEST(HypothesisTest, CaseRungsForConsistentlyCasedColumns) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"en-us", "fr-fr", "de-jp"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<lower>{2}-<lower>{2}"));
  EXPECT_TRUE(hypotheses.count("<letter>{2}-<letter>{2}"));
}

TEST(HypothesisTest, NoLowerRungWhenCasingIsMixed) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"en-US", "fr-FR", "de-JP"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<lower>{2}-<upper>{2}"));
  EXPECT_FALSE(hypotheses.count("<lower>{2}-<lower>{2}"));
  EXPECT_FALSE(hypotheses.count("<upper>{2}-<upper>{2}"));
}

TEST(UnionEnumerationTest, WeightsAreExactMatchCounts) {
  GeneralizeConfig cfg;
  cfg.coverage_frac = 0.0;
  cfg.min_cover_values = 1;
  // 3 values with 1-digit hour, 1 value with 2-digit hour.
  const std::vector<std::string> values = {"9:07", "8:30", "7:45", "10:02"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  ShapeOptions options(profile, profile.shapes()[0], cfg);

  bool saw_fix1 = false, saw_var = false;
  options.EnumerateUnion(1, 100000, [&](Pattern&& p, uint64_t weight) {
    const std::string s = p.ToString();
    // Cross-check every reported weight against the matcher.
    size_t matched = 0;
    for (const auto& v : values) {
      if (Matches(p, v)) ++matched;
    }
    EXPECT_EQ(matched, weight) << s;
    if (s == "<digit>{1}:<digit>{2}") {
      saw_fix1 = true;
      EXPECT_EQ(weight, 3u);
    }
    if (s == "<digit>+:<digit>{2}") {
      saw_var = true;
      EXPECT_EQ(weight, 4u);
    }
  });
  EXPECT_TRUE(saw_fix1);
  EXPECT_TRUE(saw_var);
}

TEST(UnionEnumerationTest, CoveragePruningDropsRarePatterns) {
  GeneralizeConfig cfg;
  std::vector<std::string> values;
  for (int i = 0; i < 99; ++i) values.push_back(std::to_string(1000 + i));
  values.push_back("7");  // rare 1-digit value
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  const uint64_t min_weight = 5;  // 5% coverage floor
  options.EnumerateUnion(min_weight, 100000, [&](Pattern&& p, uint64_t w) {
    EXPECT_GE(w, min_weight) << p.ToString();
    EXPECT_NE(p.ToString(), "<digit>{1}");
  });
}

TEST(UnionEnumerationTest, RespectsPatternBudget) {
  GeneralizeConfig cfg;
  cfg.coverage_frac = 0;
  cfg.min_cover_values = 1;
  std::vector<std::string> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(std::to_string(10 + i) + ":" + std::to_string(10 + i));
  }
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  size_t emitted = 0;
  options.EnumerateUnion(1, 7, [&](Pattern&&, uint64_t) { ++emitted; });
  EXPECT_LE(emitted, 7u);
  EXPECT_GT(emitted, 0u);
}

/// A random column for the keyed-name test. Every row follows one template
/// of positions: chunk or non-ASCII positions with a symbol between any two
/// of them (so they stay separate tokens), symbols drawn mostly from '<',
/// '\' and '>' and sometimes varied per row (a second shape group). Each
/// position draws its text per row from a small pool, so texts repeat and
/// pass the coverage floor as constants. Pools mix digit runs of up to 14
/// (fixed-length rungs of 10 and more), lower-, upper- and mixed-case
/// letters, mixed alphanumerics and non-ASCII runs; `limit_text`, a run of
/// exactly `max_literal_len` letters, sits in some pools so a constant at
/// the length limit is generated.
std::vector<std::string> KeyedNameColumn(Rng& rng, size_t max_literal_len,
                                         std::string* limit_text) {
  static const std::vector<std::string> kSymbols = {"<", "\\", "<", "\\",
                                                    ">", "-", ":", " "};
  static const std::vector<std::string> kOther = {"\xc3\xa9", "\xc3\xbc\xc3\x9f",
                                                  "\xe6\x97\xa5\xe6\x9c\xac"};
  const auto chunk = [&rng](int kind, size_t len) {
    std::string t;
    for (size_t i = 0; i < len; ++i) {
      const int k = kind == 4 ? static_cast<int>(i % 2) * 2 : kind;
      switch (k) {
        case 0:
          t.push_back(static_cast<char>('0' + rng.Below(10)));
          break;
        case 1:
          t.push_back(static_cast<char>('a' + rng.Below(26)));
          break;
        case 2:
          t.push_back(static_cast<char>('A' + rng.Below(26)));
          break;
        default:
          t.push_back(static_cast<char>((rng.Chance(0.5) ? 'a' : 'A') +
                                        rng.Below(26)));
          break;
      }
    }
    return t;
  };
  *limit_text = chunk(1, max_literal_len);

  struct Position {
    bool symbol = false;
    std::string sym;       // the symbol, when `symbol`
    bool vary = false;     // symbol replaced by another one on some rows
    std::vector<std::string> pool;
  };
  std::vector<Position> tmpl;
  const size_t chunks = 1 + rng.Below(5);
  if (rng.Chance(0.3)) tmpl.push_back({true, rng.Choice(kSymbols), false, {}});
  for (size_t c = 0; c < chunks; ++c) {
    Position pos;
    if (rng.Chance(0.15)) {
      pos.pool = kOther;
    } else {
      const size_t pool_size = 1 + rng.Below(5);
      const int main_kind = static_cast<int>(rng.Below(5));
      for (size_t i = 0; i < pool_size; ++i) {
        const int kind =
            rng.Chance(0.25) ? static_cast<int>(rng.Below(5)) : main_kind;
        const size_t len =
            kind == 0 && rng.Chance(0.5)
                ? 10 + rng.Below(5)
                : 1 + rng.Below(static_cast<uint64_t>(max_literal_len) + 2);
        pos.pool.push_back(chunk(kind, len));
      }
      if (rng.Chance(0.3)) pos.pool.push_back(*limit_text);
    }
    tmpl.push_back(std::move(pos));
    if (c + 1 < chunks || rng.Chance(0.5)) {
      tmpl.push_back({true, rng.Choice(kSymbols), rng.Chance(0.1), {}});
    }
  }

  std::vector<std::string> values;
  const size_t rows = 20 + rng.Below(60);
  for (size_t r = 0; r < rows; ++r) {
    std::string v;
    for (const Position& pos : tmpl) {
      if (pos.symbol) {
        v += pos.vary && rng.Chance(0.3) ? rng.Choice(kSymbols) : pos.sym;
      } else {
        v += rng.Choice(pos.pool);
      }
    }
    values.push_back(std::move(v));
  }
  return values;
}

TEST(UnionEnumerationTest, KeyedNamesEqualMaterializedPatterns) {
  // EnumerateUnionKeyed names each pattern from its options' pre-rendered
  // texts; EnumerateUnion builds the Pattern. The two must agree emission
  // for emission: same key, weight and canonical string, in the same
  // order, with every key the hash of its name. Parse is the independent
  // oracle for the bytes themselves (escapes, tags, decimal lengths): the
  // name must parse back to the pattern.
  Rng rng(20);
  size_t budget_cuts = 0;
  size_t limit_constants = 0;
  std::set<std::string> features;
  for (int column = 0; column < 150; ++column) {
    GeneralizeConfig cfg;
    cfg.max_literal_len = 4 + rng.Below(9);
    cfg.coverage_frac = rng.Chance(0.5) ? 0.0 : 0.05;
    cfg.min_cover_values = 1 + rng.Below(2);
    std::string limit_text;
    const std::vector<std::string> values =
        KeyedNameColumn(rng, cfg.max_literal_len, &limit_text);
    const ColumnProfile profile = ColumnProfile::Build(values, cfg);
    const uint64_t min_weight = std::max<uint64_t>(
        cfg.min_cover_values,
        static_cast<uint64_t>(cfg.coverage_frac *
                              static_cast<double>(profile.total_weight())));
    for (const ShapeGroup& group : profile.shapes()) {
      if (group.over_token_limit) continue;
      ShapeOptions options(profile, group, cfg);
      const size_t budget = 1 + rng.Below(1500);

      using Emission = std::tuple<uint64_t, uint64_t, std::string>;
      std::vector<Emission> want;
      std::vector<Pattern> patterns;
      options.EnumerateUnion(min_weight, budget, [&](Pattern&& p, uint64_t w) {
        want.emplace_back(PatternKey(p), w, p.ToString());
        patterns.push_back(std::move(p));
      });
      std::vector<Emission> got;
      options.EnumerateUnionKeyed(
          min_weight, budget,
          [&](uint64_t key, uint64_t w, const auto& name) {
            const std::string text(name());
            EXPECT_EQ(key, PolyHash64(text)) << text;
            EXPECT_EQ(name(), text);  // the reused buffer renders again
            got.emplace_back(key, w, text);
          });
      ASSERT_EQ(got, want) << "column " << column;
      if (want.size() == budget) ++budget_cuts;

      for (size_t i = 0; i < want.size(); ++i) {
        const std::string& text = std::get<2>(want[i]);
        const auto parsed = Pattern::Parse(text);
        ASSERT_TRUE(parsed.ok()) << text;
        ASSERT_EQ(*parsed, patterns[i]) << text;
        if (text.find(limit_text) != std::string::npos) ++limit_constants;
        for (const char* f : {"\\<", "\\\\", "}", "<lower>", "<upper>",
                              "<letter>", "<alnum>", "<other>+"}) {
          if (text.find(f) != std::string::npos) features.insert(f);
        }
        for (const Atom& a : patterns[i].atoms()) {
          if (a.len >= 10) features.insert("{k>=10}");
        }
      }
    }
  }
  // The columns must reach every case the test is about.
  EXPECT_GT(budget_cuts, 0u);
  EXPECT_GT(limit_constants, 0u);
  for (const char* f : {"\\<", "\\\\", "}", "<lower>", "<upper>", "<letter>",
                        "<alnum>", "<other>+", "{k>=10}"}) {
    EXPECT_TRUE(features.count(f)) << f;
  }
}

TEST(HypothesisRangeTest, SubRangeEnumeratesSegmentPatterns) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"12:34 OK", "56:78 OK"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  // Positions: [digits][:][digits][ ][letters] — range [0,3) is "12:34".
  std::set<std::string> hypotheses;
  options.EnumerateHypothesesRange(0, 3, 1000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<digit>{2}:<digit>{2}"));
  EXPECT_FALSE(hypotheses.count("<digit>{2}:<digit>{2} OK"));
}

TEST(AppendAtomMergedTest, MergesLiterals) {
  std::vector<Atom> atoms;
  AppendAtomMerged(atoms, Atom::Literal("a"));
  AppendAtomMerged(atoms, Atom::Literal("b"));
  AppendAtomMerged(atoms, Atom::Var(AtomKind::kDigitsVar));
  AppendAtomMerged(atoms, Atom::Literal("c"));
  ASSERT_EQ(atoms.size(), 3u);
  EXPECT_EQ(atoms[0].lit, "ab");
}

}  // namespace
}  // namespace av
