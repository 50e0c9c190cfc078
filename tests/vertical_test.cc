#include "core/vertical.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/horizontal.h"
#include "index/indexer.h"
#include "lakegen/domains.h"
#include "pattern/matcher.h"

namespace av {
namespace {

const DomainSpec& DomainByName(const std::string& name) {
  for (const auto& d : EnterpriseDomains()) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no domain " << name;
  static DomainSpec dummy;
  return dummy;
}

/// Corpus of fragment domains (the sub-domains of the wide composite),
/// mirroring a lake where single-field columns are common.
Corpus FragmentCorpus() {
  const char* names[] = {"kv_id",    "kv_status", "kv_node",
                         "kv_score", "kv_epoch",  "status_enum"};
  Corpus corpus;
  Rng rng(321);
  Table t;
  t.name = "frags";
  size_t i = 0;
  for (const char* name : names) {
    const DomainSpec& dom = DomainByName(name);
    for (int k = 0; k < 40; ++k) {
      Column c;
      c.table_name = t.name;
      c.name = dom.name + "_" + std::to_string(k);
      RowGen gen = dom.make_column(rng);
      for (int r = 0; r < 120; ++r) c.values.push_back(gen(rng));
      t.columns.push_back(std::move(c));
      if (t.columns.size() == 12) {
        corpus.AddTable(std::move(t));
        t = Table{};
        t.name = "frags_" + std::to_string(++i);
      }
    }
  }
  if (!t.columns.empty()) corpus.AddTable(std::move(t));
  return corpus;
}

std::vector<std::string> WideCompositeColumn(size_t n = 50) {
  const DomainSpec& dom = DomainByName("composite_kv_wide");
  Rng rng(77);
  RowGen gen = dom.make_column(rng);
  std::vector<std::string> values;
  for (size_t i = 0; i < n; ++i) values.push_back(gen(rng));
  return values;
}

/// FMDV-V the way AutoValidate::Train runs it: one training profile with
/// tau unbounded, SelectConforming's checks without a cut, then the solver.
Result<VerticalSolution> SolveV(ColumnView values, const PatternIndex& index,
                                const AutoValidateOptions& opts) {
  const ColumnProfile profile =
      TrainingProfile(values, opts.gen, /*vertical=*/true);
  auto split = SelectConforming(profile, /*cut=*/false, opts);
  if (!split.ok()) return split.status();
  return SolveFmdvV(profile, *split->group, index, opts);
}

class VerticalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(FragmentCorpus());
    IndexerConfig cfg;
    cfg.num_threads = 2;
    index_ = new PatternIndex(BuildIndex(*corpus_, cfg));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete corpus_;
  }
  static Corpus* corpus_;
  static PatternIndex* index_;
};

Corpus* VerticalTest::corpus_ = nullptr;
PatternIndex* VerticalTest::index_ = nullptr;

TEST_F(VerticalTest, BasicFmdvFailsOnWideColumn) {
  // Without vertical cuts the column is profiled with tau, and its one
  // shape group is too wide to solve.
  AutoValidateOptions opts;
  opts.min_coverage = 10;
  const auto values = WideCompositeColumn();
  const ColumnProfile profile =
      TrainingProfile(values, opts.gen, /*vertical=*/false);
  const auto split = SelectConforming(profile, /*cut=*/false, opts);
  EXPECT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kInfeasible);
}

TEST_F(VerticalTest, VerticalCutsValidateWideColumn) {
  AutoValidateOptions opts;
  opts.min_coverage = 10;
  opts.fpr_target = 0.1;
  const auto values = WideCompositeColumn();
  auto sol = SolveV(values, *index_, opts);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_GE(sol->segment_patterns.size(), 4u)
      << "expected several vertical segments, got pattern "
      << sol->pattern.ToString();
  EXPECT_LE(sol->fpr_total, 0.1);
  EXPECT_GE(sol->min_segment_coverage, 10u);

  // The concatenated pattern must validate unseen same-domain values...
  const DomainSpec& dom = DomainByName("composite_kv_wide");
  Rng rng(555);
  RowGen gen = dom.make_column(rng);
  for (int i = 0; i < 30; ++i) {
    const std::string v = gen(rng);
    EXPECT_TRUE(Matches(sol->pattern, v)) << sol->pattern.ToString()
                                          << " vs " << v;
  }
  // ...and reject drifted ones.
  EXPECT_FALSE(Matches(sol->pattern, "id=12345;st=Done;node=ab;score=1;ts=2"));
  EXPECT_FALSE(Matches(sol->pattern, "Delivered"));
}

TEST_F(VerticalTest, SegmentRangesPartitionTheColumn) {
  AutoValidateOptions opts;
  opts.min_coverage = 10;
  auto sol = SolveV(WideCompositeColumn(), *index_, opts);
  ASSERT_TRUE(sol.ok());
  size_t expected_begin = 0;
  for (const auto& [begin, end] : sol->segment_ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    EXPECT_LE(end - begin, opts.gen.max_tokens);
    expected_begin = end;
  }
}

TEST_F(VerticalTest, SumObjectiveIsAtLeastMaxObjective) {
  const auto values = WideCompositeColumn();
  AutoValidateOptions sum_opts;
  sum_opts.min_coverage = 10;
  AutoValidateOptions max_opts = sum_opts;
  max_opts.vertical_use_max = true;
  auto sum_sol = SolveV(values, *index_, sum_opts);
  auto max_sol = SolveV(values, *index_, max_opts);
  ASSERT_TRUE(sum_sol.ok());
  ASSERT_TRUE(max_sol.ok());
  EXPECT_GE(sum_sol->fpr_total, max_sol->fpr_total - 1e-12);
}

TEST_F(VerticalTest, NarrowColumnWorksAsSingleSegment) {
  // A plain fragment column should come back as (close to) one segment.
  AutoValidateOptions opts;
  opts.min_coverage = 10;
  Rng rng(9);
  RowGen gen = DomainByName("kv_id").make_column(rng);
  std::vector<std::string> values;
  for (int i = 0; i < 40; ++i) values.push_back(gen(rng));
  auto sol = SolveV(values, *index_, opts);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->pattern.ToString(), "id=<digit>{6};");
}

TEST_F(VerticalTest, HeterogeneousValuesRejected) {
  AutoValidateOptions opts;
  const std::vector<std::string> mixed = {"id=123456;", "totally different"};
  auto sol = SolveV(mixed, *index_, opts);
  EXPECT_FALSE(sol.ok());
}

}  // namespace
}  // namespace av
