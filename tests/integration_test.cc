// End-to-end pipeline tests: lake -> offline index -> online training ->
// validation of future batches, plus the full benchmark loop on a small
// scale (the shape assertions of EXPERIMENTS.md in miniature).
#include <gtest/gtest.h>


#include "baselines/dictionary.h"
#include "baselines/potters_wheel.h"
#include "core/auto_validate.h"
#include "eval/benchmark_gen.h"
#include "eval/evaluator.h"
#include "index/indexer.h"
#include "lakegen/lakegen.h"
#include "tests/test_util.h"

namespace av {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(testutil::SmallLake(1500, 55));
    IndexerConfig icfg;
    icfg.num_threads = 2;
    index_ = new PatternIndex(BuildIndex(*corpus_, icfg));

    BenchmarkConfig bcfg;
    bcfg.num_cases = 60;
    bcfg.max_values = 400;
    bench_ = new Benchmark(MakeBenchmark(*corpus_, bcfg,
                                         EnterpriseDomains()));

    AutoValidateOptions opts;
    opts.min_coverage = 3;  // scaled to the small test lake
    opts.fpr_target = 0.1;
    engine_ = new AutoValidate(index_, opts);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete bench_;
    delete index_;
    delete corpus_;
  }

  static Corpus* corpus_;
  static PatternIndex* index_;
  static Benchmark* bench_;
  static AutoValidate* engine_;
};

Corpus* IntegrationTest::corpus_ = nullptr;
PatternIndex* IntegrationTest::index_ = nullptr;
Benchmark* IntegrationTest::bench_ = nullptr;
AutoValidate* IntegrationTest::engine_ = nullptr;

TEST_F(IntegrationTest, FmdvVhBeatsTfdvOnBothAxes) {
  EvalConfig cfg;
  cfg.num_threads = 2;
  const auto vh = EvaluateMethod(
      *bench_, "FMDV-VH", MakeAutoValidateLearner(engine_, Method::kFmdvVH),
      cfg);
  TfdvLearner tfdv;
  const auto tf =
      EvaluateMethod(*bench_, "TFDV", MakeBaselineLearner(&tfdv), cfg);

  EXPECT_GT(vh.precision, 0.85);
  EXPECT_GT(vh.recall, 0.5);
  EXPECT_GT(vh.precision, tf.precision);
  EXPECT_GT(vh.f1, tf.f1);
}

TEST_F(IntegrationTest, VariantOrderingHolds) {
  // The paper's headline ordering: FMDV-VH >= FMDV-H >= FMDV on F1
  // (vertical-only sits between FMDV and FMDV-VH).
  EvalConfig cfg;
  cfg.num_threads = 2;
  const auto f = EvaluateMethod(
      *bench_, "FMDV", MakeAutoValidateLearner(engine_, Method::kFmdv), cfg);
  const auto h = EvaluateMethod(
      *bench_, "FMDV-H", MakeAutoValidateLearner(engine_, Method::kFmdvH),
      cfg);
  const auto vh = EvaluateMethod(
      *bench_, "FMDV-VH", MakeAutoValidateLearner(engine_, Method::kFmdvVH),
      cfg);
  EXPECT_GE(vh.f1 + 1e-9, h.f1);
  EXPECT_GE(h.f1 + 1e-9, f.f1);
}

TEST_F(IntegrationTest, PwheelOverRestricts) {
  EvalConfig cfg;
  cfg.num_threads = 2;
  PottersWheelLearner pw;
  const auto eval =
      EvaluateMethod(*bench_, "PWheel", MakeBaselineLearner(&pw), cfg);
  const auto vh = EvaluateMethod(
      *bench_, "FMDV-VH", MakeAutoValidateLearner(engine_, Method::kFmdvVH),
      cfg);
  // Profiling summarizes training data and false-alarms on future values.
  EXPECT_LT(eval.precision, vh.precision);
}

TEST_F(IntegrationTest, GroundTruthModeImprovesBothAxes) {
  EvalConfig cfg;
  cfg.num_threads = 2;
  const auto prog = EvaluateMethod(
      *bench_, "FMDV-VH", MakeAutoValidateLearner(engine_, Method::kFmdvVH),
      cfg);
  EvalConfig gt = cfg;
  gt.ground_truth_mode = true;
  const auto adj = EvaluateMethod(
      *bench_, "FMDV-VH", MakeAutoValidateLearner(engine_, Method::kFmdvVH),
      gt);
  // Table 2: programmatic evaluation under-estimates true quality.
  EXPECT_GE(adj.precision + 1e-9, prog.precision);
  EXPECT_GE(adj.recall + 1e-9, prog.recall);
}

TEST_F(IntegrationTest, IndexRoundTripPreservesDecisions) {
  const ScopedTempDir dir = testutil::MakeTempDir();
  const std::string path = dir.File("index.bin");
  ASSERT_TRUE(index_->Save(path).ok());
  auto loaded = PatternIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  AutoValidate engine2(&loaded.value(), engine_->options());

  for (size_t i = 0; i < std::min<size_t>(10, bench_->cases.size()); ++i) {
    const auto& c = bench_->cases[i];
    auto r1 = engine_->Train(c.train, Method::kFmdvVH);
    auto r2 = engine2.Train(c.train, Method::kFmdvVH);
    ASSERT_EQ(r1.ok(), r2.ok()) << c.name;
    if (r1.ok()) {
      EXPECT_EQ(r1->pattern.ToString(), r2->pattern.ToString()) << c.name;
    }
  }
}

TEST_F(IntegrationTest, RecurringPipelineScenario) {
  // Simulate a daily pipeline: train once, validate 5 clean daily batches,
  // then a drifted one (schema drift swaps in another domain's column).
  // Use the first sampled syntactic case whose rule is learnable.
  const BenchmarkCase* date_case = nullptr;
  Result<ValidationRule> rule = Status::Infeasible("none");
  for (const auto& c : bench_->cases) {
    if (!c.has_syntactic_pattern || c.test.size() < 50) continue;
    auto attempt = engine_->Train(c.train, Method::kFmdvVH);
    if (attempt.ok()) {
      date_case = &c;
      rule = std::move(attempt);
      break;
    }
  }
  ASSERT_NE(date_case, nullptr) << "no learnable case in the benchmark";

  const size_t batch = date_case->test.size() / 5;
  ASSERT_GT(batch, 0u);
  for (int day = 0; day < 5; ++day) {
    std::vector<std::string> daily(
        date_case->test.begin() + day * batch,
        date_case->test.begin() + (day + 1) * batch);
    EXPECT_FALSE(engine_->Validate(*rule, daily).flagged) << "day " << day;
  }
  // Drifted day: values from different-domain cases. At least most such
  // swaps must be caught (same-shape domains can legitimately pass).
  size_t flagged = 0, total = 0;
  for (const auto& c : bench_->cases) {
    if (c.domain_name == date_case->domain_name || !c.has_syntactic_pattern) {
      continue;
    }
    ++total;
    if (engine_->Validate(*rule, c.test).flagged) ++flagged;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(flagged) / static_cast<double>(total), 0.5);
}

}  // namespace
}  // namespace av
