#include "core/fmdv.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/horizontal.h"
#include "index/indexer.h"
#include "lakegen/domains.h"
#include "pattern/matcher.h"
#include "tests/test_util.h"

namespace av {
namespace {

/// Corpus dominated by "Mon DD YYYY" date columns with per-column windows
/// (some narrow, some broad), plus some enum columns — the setting of
/// Figures 2 and 6.
Corpus DateCorpus(size_t date_cols = 150, size_t enum_cols = 50) {
  const auto& domains = EnterpriseDomains();
  const DomainSpec* date_dom = nullptr;
  const DomainSpec* enum_dom = nullptr;
  for (const auto& d : domains) {
    if (d.name == "date_mdy_text") date_dom = &d;
    if (d.name == "status_enum") enum_dom = &d;
  }
  Corpus corpus;
  Rng rng(123);
  Table t;
  t.name = "dates";
  for (size_t i = 0; i < date_cols + enum_cols; ++i) {
    const DomainSpec* dom = i < date_cols ? date_dom : enum_dom;
    Column c;
    c.table_name = t.name;
    c.name = dom->name + "_" + std::to_string(i);
    RowGen gen = dom->make_column(rng);
    for (size_t r = 0; r < 200; ++r) c.values.push_back(gen(rng));
    t.columns.push_back(std::move(c));
    if (t.columns.size() == 10) {
      corpus.AddTable(std::move(t));
      t = Table{};
      t.name = "dates_" + std::to_string(i);
    }
  }
  if (!t.columns.empty()) corpus.AddTable(std::move(t));
  return corpus;
}

std::vector<std::string> NarrowMarchColumn() {
  std::vector<std::string> values;
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "Mar %02d 2019",
                  static_cast<int>(rng.Range(1, 28)));
    values.push_back(buf);
  }
  return values;
}

/// Basic FMDV the way AutoValidate::Train runs it: one training profile,
/// SelectConforming's checks without a cut, then the solver on its group.
Result<FmdvSolution> Solve(ColumnView values, const PatternIndex& index,
                           const AutoValidateOptions& opts,
                           FmdvObjective objective = FmdvObjective::kMinFpr) {
  const ColumnProfile profile =
      TrainingProfile(values, opts.gen, /*vertical=*/false);
  auto split = SelectConforming(profile, /*cut=*/false, opts);
  if (!split.ok()) return split.status();
  return SolveFmdv(profile, *split->group, index, opts, objective);
}

class FmdvTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(DateCorpus());
    IndexerConfig cfg;
    cfg.num_threads = 2;
    index_ = new PatternIndex(BuildIndex(*corpus_, cfg));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete corpus_;
    index_ = nullptr;
    corpus_ = nullptr;
  }

  static Corpus* corpus_;
  static PatternIndex* index_;
};

Corpus* FmdvTest::corpus_ = nullptr;
PatternIndex* FmdvTest::index_ = nullptr;

TEST_F(FmdvTest, GeneralizesNarrowDateColumn) {
  // The paper's headline example: training data covers only March 2019, yet
  // the selected validation pattern must accept any month/day/year — not the
  // profiling pattern "Mar <digit>{2} 2019".
  AutoValidateOptions opts;
  opts.fpr_target = 0.1;
  opts.min_coverage = 20;
  auto sol = Solve(NarrowMarchColumn(), *index_, opts);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->pattern.ToString(), "<letter>{3} <digit>{2} <digit>{4}");
  EXPECT_LE(sol->fpr, 0.1);
  EXPECT_GE(sol->coverage, 20u);
  // Future values from the same domain must pass.
  EXPECT_TRUE(Matches(sol->pattern, "Apr 01 2019"));
  EXPECT_TRUE(Matches(sol->pattern, "Dec 25 2023"));
  // Drifted values must fail.
  EXPECT_FALSE(Matches(sol->pattern, "2019-03-01"));
  EXPECT_FALSE(Matches(sol->pattern, "Delivered"));
}

TEST_F(FmdvTest, NarrowPatternsHaveHighCorpusFpr) {
  // Example 2/3: the index must witness that Const-month patterns are
  // impure in broad columns.
  const auto narrow = index_->Lookup("Mar <digit>{2} <digit>{4}");
  ASSERT_TRUE(narrow.has_value());
  EXPECT_GT(narrow->fpr, 0.5) << "Const(Mar) should look impure in corpus";
  const auto good = index_->Lookup("<letter>{3} <digit>{2} <digit>{4}");
  ASSERT_TRUE(good.has_value());
  EXPECT_LT(good->fpr, 0.05);
  EXPECT_GT(good->coverage, 100u);
}

TEST_F(FmdvTest, EnumColumnGetsLetterPattern) {
  AutoValidateOptions opts;
  opts.fpr_target = 0.1;
  opts.min_coverage = 10;
  const std::vector<std::string> values = {"Delivered", "Clicked", "Expired",
                                           "Delivered", "Clicked"};
  auto sol = Solve(values, *index_, opts);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->pattern.ToString(), "<letter>+");
}

TEST_F(FmdvTest, InfeasibleWhenFprTargetIsZeroAndNoCleanPattern) {
  AutoValidateOptions opts;
  opts.fpr_target = 0.0;
  opts.min_coverage = 1000000;  // impossible coverage
  auto sol = Solve(NarrowMarchColumn(), *index_, opts);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST_F(FmdvTest, HeterogeneousColumnInfeasible) {
  AutoValidateOptions opts;
  const std::vector<std::string> values = {"Mar 01 2019", "2019-03-01"};
  auto sol = Solve(values, *index_, opts);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST_F(FmdvTest, EmptyColumnIsInvalidArgument) {
  AutoValidateOptions opts;
  auto sol = Solve({}, *index_, opts);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FmdvTest, CmdvPrefersMostRestrictive) {
  AutoValidateOptions opts;
  opts.fpr_target = 0.1;
  opts.min_coverage = 10;
  auto fmdv =
      Solve(NarrowMarchColumn(), *index_, opts, FmdvObjective::kMinFpr);
  auto cmdv =
      Solve(NarrowMarchColumn(), *index_, opts, FmdvObjective::kMinCoverage);
  ASSERT_TRUE(fmdv.ok());
  ASSERT_TRUE(cmdv.ok());
  EXPECT_LE(cmdv->coverage, fmdv->coverage);
}

TEST_F(FmdvTest, FprMonotoneInR) {
  // Property: relaxing r can only weakly decrease the optimal FPR... it is
  // constant (min-FPR objective); but feasibility can flip from infeasible
  // to feasible as r grows.
  const auto values = NarrowMarchColumn();
  AutoValidateOptions strict;
  strict.fpr_target = 1e-9;
  strict.min_coverage = 20;
  AutoValidateOptions lax;
  lax.fpr_target = 0.5;
  lax.min_coverage = 20;
  auto s = Solve(values, *index_, strict);
  auto l = Solve(values, *index_, lax);
  ASSERT_TRUE(l.ok());
  if (s.ok()) {
    EXPECT_LE(s->fpr, l->fpr + 1e-12);
  }
}

}  // namespace
}  // namespace av
