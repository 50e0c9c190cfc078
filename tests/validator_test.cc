#include "core/validator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "pattern/matcher.h"

namespace av {
namespace {

ValidationRule DigitsRule(uint64_t train_size, uint64_t train_bad,
                          HomogeneityTest test = HomogeneityTest::kFisherExact,
                          double alpha = 0.01) {
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<digit>+");
  rule.segments = {rule.pattern};
  rule.train_size = train_size;
  rule.train_nonconforming = train_bad;
  rule.test = test;
  rule.significance = alpha;
  return rule;
}

std::vector<std::string> DigitBatch(size_t good, size_t bad) {
  std::vector<std::string> values;
  for (size_t i = 0; i < good; ++i) values.push_back(std::to_string(100 + i));
  for (size_t i = 0; i < bad; ++i) values.push_back("N/A");
  return values;
}

/// `n` distinct values that violate `<digit>+`.
std::vector<std::string> DistinctViolations(size_t n) {
  std::vector<std::string> values;
  for (size_t i = 0; i < n; ++i) values.push_back("bad-" + std::to_string(i));
  return values;
}

TEST(ValidatorTest, CleanBatchPasses) {
  const auto report = ValidateColumn(DigitsRule(100, 0), DigitBatch(900, 0));
  EXPECT_FALSE(report.flagged);
  EXPECT_EQ(report.nonconforming, 0u);
  EXPECT_DOUBLE_EQ(report.theta_test, 0.0);
}

TEST(ValidatorTest, StrongDriftFlagged) {
  // Section 4: theta 0.1% -> 5% must be reported.
  const auto report = ValidateColumn(DigitsRule(1000, 1), DigitBatch(855, 45));
  EXPECT_TRUE(report.flagged);
  EXPECT_LT(report.p_value, 0.01);
  EXPECT_FALSE(report.sample_violations.empty());
  EXPECT_EQ(report.sample_violations[0], "N/A");
}

TEST(ValidatorTest, TinyIncreaseNotFlaggedByFisher) {
  // Section 4: 0.1% -> 0.11% would be a false positive under the naive rule.
  const auto report =
      ValidateColumn(DigitsRule(1000, 1), DigitBatch(8990, 10));
  EXPECT_FALSE(report.flagged);
  EXPECT_GE(report.p_value, 0.01);
}

TEST(ValidatorTest, NaiveThresholdFlagsTinyIncrease) {
  const auto report = ValidateColumn(
      DigitsRule(1000, 1, HomogeneityTest::kNaiveThreshold),
      DigitBatch(8990, 10));
  EXPECT_TRUE(report.flagged);
}

TEST(ValidatorTest, ChiSquaredAgreesOnStrongDrift) {
  const auto report = ValidateColumn(
      DigitsRule(1000, 1, HomogeneityTest::kChiSquaredYates),
      DigitBatch(855, 45));
  EXPECT_TRUE(report.flagged);
}

TEST(ValidatorTest, NothingMatchingIsExtremeCase) {
  // "The special case where no value in C' matches h has theta = 100%".
  const auto report = ValidateColumn(DigitsRule(100, 0), DigitBatch(0, 50));
  EXPECT_TRUE(report.flagged);
  EXPECT_DOUBLE_EQ(report.theta_test, 1.0);
}

TEST(ValidatorTest, ImprovementNeverFlagged) {
  // Fewer non-conforming values than training: never an issue.
  const auto report = ValidateColumn(DigitsRule(100, 10), DigitBatch(900, 0));
  EXPECT_FALSE(report.flagged);
  EXPECT_DOUBLE_EQ(report.p_value, 1.0);
}

TEST(ValidatorTest, EmptyBatchPasses) {
  const auto report = ValidateColumn(DigitsRule(100, 0), ColumnView());
  EXPECT_FALSE(report.flagged);
  EXPECT_EQ(report.total, 0u);
}

TEST(ValidatorTest, SampleViolationsCappedAtFive) {
  const auto report = ValidateColumn(DigitsRule(10, 0), DistinctViolations(50));
  EXPECT_EQ(report.sample_violations,
            (std::vector<std::string>{"bad-0", "bad-1", "bad-2", "bad-3",
                                      "bad-4"}));
}

TEST(ValidatorStatsTest, SelfMergeDoublesCountsWithoutUB) {
  // Regression: MergeFrom used a range-for over other.sample_violations
  // while push_back-ing into the same vector — iterator-invalidation UB
  // when `&other == this`. Self-merge is now defined as merging a copy:
  // the counts double and the distinct samples stay the same.
  ValidationStats s;
  s.total = 10;
  s.nonconforming = 3;
  s.sample_violations = {"a", "b", "c"};

  ValidationStats copy = s;
  s.MergeFrom(s, /*max_samples=*/5);
  EXPECT_EQ(s.total, 20u);
  EXPECT_EQ(s.nonconforming, 6u);
  EXPECT_EQ(s.sample_violations, (std::vector<std::string>{"a", "b", "c"}));

  // s.MergeFrom(s) == Merge(copy, copy): identical-copy semantics.
  const ValidationStats doubled = ValidationStats::Merge(copy, copy, 5);
  EXPECT_EQ(doubled.total, s.total);
  EXPECT_EQ(doubled.nonconforming, s.nonconforming);
  EXPECT_EQ(doubled.sample_violations, s.sample_violations);

  // Merge(a, a) where both operands alias the same object.
  const ValidationStats& alias = copy;
  const ValidationStats merged = ValidationStats::Merge(copy, alias, 5);
  EXPECT_EQ(merged.total, 20u);
  EXPECT_EQ(merged.sample_violations, s.sample_violations);

  // Self-merge with a cap below the current sample count appends nothing.
  ValidationStats capped = copy;
  capped.MergeFrom(capped, /*max_samples=*/3);
  EXPECT_EQ(capped.total, 20u);
  EXPECT_EQ(capped.sample_violations,
            (std::vector<std::string>{"a", "b", "c"}));
}

void ExpectReportsIdentical(const ValidationReport& a,
                            const ValidationReport& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.nonconforming, b.nonconforming);
  EXPECT_EQ(a.theta_test, b.theta_test);  // bitwise: same division
  EXPECT_EQ(a.p_value, b.p_value);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.sample_violations, b.sample_violations);
}

TEST(AdaptiveValidateTest, DistinctRatioEstimates) {
  // All-distinct batch.
  std::vector<std::string> distinct;
  for (int i = 0; i < 200; ++i) distinct.push_back(std::to_string(1000 + i));
  EXPECT_GE(EstimateDistinctRatio(distinct), 0.95);
  // Heavy duplication: 200 rows over 4 distinct values.
  std::vector<std::string> dups;
  for (int i = 0; i < 200; ++i) dups.push_back(std::to_string(i % 4));
  EXPECT_LE(EstimateDistinctRatio(dups), 0.25);
  // Empty batch is defined.
  EXPECT_EQ(EstimateDistinctRatio(std::vector<std::string>{}), 1.0);
}

/// Brute-force reference for the counts and the sample rule: one
/// PatternMatcher::Matches per row, keeping the first `max_samples`
/// distinct violating values in row order.
ValidationStats ReferenceStats(const Pattern& pattern,
                               const std::vector<std::string>& rows,
                               size_t max_samples) {
  PatternMatcher matcher(pattern);
  ValidationStats ref;
  for (const std::string& v : rows) {
    ++ref.total;
    if (matcher.Matches(v)) continue;
    ++ref.nonconforming;
    const auto& samples = ref.sample_violations;
    if (samples.size() < max_samples &&
        std::find(samples.begin(), samples.end(), v) == samples.end()) {
      ref.sample_violations.push_back(v);
    }
  }
  return ref;
}

// Randomized sweep across duplication levels, caps and micro-batch splits:
// whichever arm the duplication sniff picks, ValidateColumn and a session
// fed the same rows in random in-order pieces both equal the reference,
// sample list included.
TEST(ValidatorTest, EveryPathMatchesBruteForceReference) {
  // The distinct ratio at or above which AccumulateValidation streams row
  // by row instead of tokenizing once (validator.cc).
  constexpr double kRowArmRatio = 0.875;
  const ValidationRule rule = DigitsRule(500, 2);
  uint64_t state = 7;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  size_t row_arm = 0;
  size_t distinct_arm = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rows = 1 + next() % 400;
    // Good values all-distinct or from a small pool; violations from a
    // small pool, so they repeat on both arms.
    const uint64_t good_pool = next() % 2 == 0 ? 1u << 30 : 1 + next() % 16;
    const uint64_t bad_pool = 1 + next() % 6;
    const uint64_t bad_every = 2 + next() % 20;
    const size_t max_samples = next() % 8;
    std::vector<std::string> batch;
    for (size_t r = 0; r < rows; ++r) {
      if (next() % bad_every == 0) {
        std::string bad = "x!";
        bad += std::to_string(next() % bad_pool);
        batch.push_back(std::move(bad));
      } else {
        batch.push_back(std::to_string(next() % good_pool));
      }
    }
    ++(EstimateDistinctRatio(batch) >= kRowArmRatio ? row_arm : distinct_arm);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const ValidationStats ref = ReferenceStats(rule.pattern, batch, max_samples);
    const ValidationReport want = FinishValidation(rule, ref);
    ExpectReportsIdentical(ValidateColumn(rule, batch, max_samples), want);

    ValidationSession session(rule, max_samples);
    const std::span<const std::string> all(batch);
    for (size_t begin = 0; begin < rows;) {
      const size_t len = std::min<size_t>(1 + next() % rows, rows - begin);
      session.Feed(all.subspan(begin, len));
      begin += len;
    }
    ExpectReportsIdentical(session.Finish(), want);
    EXPECT_EQ(session.shared_rule()->train_size, rule.train_size);
  }
  EXPECT_GT(row_arm, 0u);
  EXPECT_GT(distinct_arm, 0u);
}

TEST(ValidatorTest, ImprovementSetsExplicitPValue) {
  // The theta_test <= theta_train early return must fully determine the
  // report (explicit p = 1.0), even when the report object is reused.
  const ValidationRule rule = DigitsRule(100, 10);
  ValidationStats stats;
  PatternMatcher matcher(rule.pattern);
  const auto batch = DigitBatch(900, 0);
  AccumulateValidation(matcher, batch, 5, &stats);
  const ValidationReport report = FinishValidation(rule, stats);
  EXPECT_FALSE(report.flagged);
  EXPECT_DOUBLE_EQ(report.p_value, 1.0);
}

TEST(ValidatorTest, DescribeMentionsMethodAndPattern) {
  const std::string desc = DigitsRule(10, 1).Describe();
  EXPECT_NE(desc.find("FMDV-H"), std::string::npos);
  EXPECT_NE(desc.find("<digit>+"), std::string::npos);
}

TEST(ValidatorSerializationTest, RoundTrip) {
  ValidationRule rule = DigitsRule(1000, 7, HomogeneityTest::kChiSquaredYates,
                                   0.05);
  rule.method = Method::kFmdvVH;
  rule.fpr_estimate = 0.0123;
  rule.coverage = 456;
  rule.segments = {*Pattern::Parse("id=<digit>{6};"),
                   *Pattern::Parse("st=<letter>+;")};
  rule.pattern = *Pattern::Parse("id=<digit>{6};st=<letter>+;");

  const std::string line = rule.Serialize();
  auto back = ValidationRule::Deserialize(line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->method, rule.method);
  EXPECT_DOUBLE_EQ(back->fpr_estimate, rule.fpr_estimate);
  EXPECT_EQ(back->coverage, rule.coverage);
  EXPECT_EQ(back->train_size, rule.train_size);
  EXPECT_EQ(back->train_nonconforming, rule.train_nonconforming);
  EXPECT_EQ(back->test, rule.test);
  EXPECT_DOUBLE_EQ(back->significance, rule.significance);
  EXPECT_EQ(back->pattern.ToString(), rule.pattern.ToString());
  ASSERT_EQ(back->segments.size(), 2u);
  EXPECT_EQ(back->segments[1].ToString(), "st=<letter>+;");
}

TEST(ValidatorSerializationTest, EscapedCharactersSurvive) {
  // The literal contains both the field separator '|' and the escape '\'.
  ValidationRule rule;
  rule.pattern = Pattern({Atom::Literal("a|b\\"), Atom::Var(
                             AtomKind::kDigitsVar)});
  rule.segments = {rule.pattern};
  rule.train_size = 10;
  auto back = ValidationRule::Deserialize(rule.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->pattern.ToString(), rule.pattern.ToString());
  EXPECT_TRUE(Matches(back->pattern, "a|b\\42"));
}

TEST(ValidatorSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(ValidationRule::Deserialize("").ok());
  EXPECT_FALSE(ValidationRule::Deserialize("not a rule").ok());
  EXPECT_FALSE(ValidationRule::Deserialize("AVRULE1|method=99|pattern=x").ok());
  EXPECT_FALSE(ValidationRule::Deserialize("AVRULE1|method=0").ok());
  EXPECT_FALSE(
      ValidationRule::Deserialize("AVRULE1|bogus|pattern=<digit>+").ok());
  EXPECT_FALSE(ValidationRule::Deserialize(
                   "AVRULE1|train=1|nonconf=5|pattern=<digit>+")
                   .ok());
}

TEST(ValidatorSerializationTest, DeserializedRuleValidatesIdentically) {
  const ValidationRule rule = DigitsRule(1000, 1);
  auto back = ValidationRule::Deserialize(rule.Serialize());
  ASSERT_TRUE(back.ok());
  const auto batch = DigitBatch(855, 45);
  const auto r1 = ValidateColumn(rule, batch);
  const auto r2 = ValidateColumn(*back, batch);
  EXPECT_EQ(r1.flagged, r2.flagged);
  EXPECT_DOUBLE_EQ(r1.p_value, r2.p_value);
}

TEST(ValidatorTest, SmallSamplesNeedStrongEvidence) {
  // With only 10 test values, 1 bad value (10%) vs theta_train 0 on 10
  // training values is not significant at alpha 0.01.
  const auto report = ValidateColumn(DigitsRule(10, 0), DigitBatch(9, 1));
  EXPECT_FALSE(report.flagged);
}

}  // namespace
}  // namespace av
