#include "core/auto_validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>

#include "common/hash.h"
#include "common/rng.h"
#include "lakegen/domains.h"
#include "lakegen/lakegen.h"
#include "pattern/matcher.h"
#include "tests/test_util.h"

namespace av {
namespace {

class AutoValidateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Deterministic per-domain coverage (the Zipf lake is exercised in the
    // integration tests; here we need every queried domain well-supported).
    corpus_ = new Corpus(testutil::DomainsCorpus({
        {"ipv4", 25},
        {"locale_lower", 20},
        {"iso_date", 25},
        {"date_mdy_text", 25},
        {"guid", 20},
        {"time_hms", 20},
        {"status_enum", 20},
        {"kv_id", 20},
        {"kv_status", 20},
        {"kv_node", 20},
        {"kv_score", 20},
        {"kv_epoch", 20},
        {"composite_kv_wide", 10},
        {"nl_phrase", 15},
    }));
    index_ = new PatternIndex(testutil::BuildTestIndex(*corpus_));
    AutoValidateOptions opts;
    opts.min_coverage = 5;
    opts.fpr_target = 0.1;
    engine_ = new AutoValidate(index_, opts);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete index_;
    delete corpus_;
  }

  static std::vector<std::string> DomainColumn(const std::string& name,
                                               size_t rows, uint64_t seed) {
    for (const auto& d : EnterpriseDomains()) {
      if (d.name != name) continue;
      Rng rng(seed);
      RowGen gen = d.make_column(rng);
      std::vector<std::string> values;
      for (size_t i = 0; i < rows; ++i) values.push_back(gen(rng));
      return values;
    }
    ADD_FAILURE() << "unknown domain " << name;
    return {};
  }

  static Corpus* corpus_;
  static PatternIndex* index_;
  static AutoValidate* engine_;
};

Corpus* AutoValidateTest::corpus_ = nullptr;
PatternIndex* AutoValidateTest::index_ = nullptr;
AutoValidate* AutoValidateTest::engine_ = nullptr;

TEST_F(AutoValidateTest, TrainAndValidateCleanDomain) {
  const auto train = DomainColumn("ipv4", 60, 1);
  auto rule = engine_->Train(train, Method::kFmdv);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->pattern.ToString(), "<digit>+.<digit>+.<digit>+.<digit>+");

  const auto future = DomainColumn("ipv4", 200, 2);
  const auto report = engine_->Validate(*rule, future);
  EXPECT_FALSE(report.flagged);

  const auto drifted = DomainColumn("locale_lower", 200, 3);
  const auto drift_report = engine_->Validate(*rule, drifted);
  EXPECT_TRUE(drift_report.flagged);
}

TEST_F(AutoValidateTest, FmdvHToleratesDirtyTraining) {
  auto train = DomainColumn("iso_date", 95, 4);
  for (int i = 0; i < 5; ++i) train.push_back("N/A");

  // Basic FMDV must fail on the dirty column...
  auto basic = engine_->Train(train, Method::kFmdv);
  EXPECT_FALSE(basic.ok());

  // ...while FMDV-H cuts the non-conforming 5%.
  auto rule = engine_->Train(train, Method::kFmdvH);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->pattern.ToString(), "<digit>{4}-<digit>{2}-<digit>{2}");
  EXPECT_EQ(rule->train_nonconforming, 5u);
  EXPECT_NEAR(rule->theta_train(), 0.05, 1e-12);

  // A future batch with a similar dirt level passes; a drifted one fails.
  auto future = DomainColumn("iso_date", 190, 5);
  for (int i = 0; i < 10; ++i) future.push_back("N/A");
  EXPECT_FALSE(engine_->Validate(*rule, future).flagged);
  std::vector<std::string> broken(200, std::string("unknown"));
  EXPECT_TRUE(engine_->Validate(*rule, broken).flagged);
}

TEST_F(AutoValidateTest, FmdvVhHandlesDirtyWideColumns) {
  auto train = DomainColumn("composite_kv_wide", 57, 6);
  train.push_back("-");
  train.push_back("");
  train.push_back("null");

  auto rule = engine_->Train(train, Method::kFmdvVH);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_GE(rule->segments.size(), 2u);
  EXPECT_EQ(rule->train_nonconforming, 3u);

  const auto future = DomainColumn("composite_kv_wide", 100, 7);
  EXPECT_FALSE(engine_->Validate(*rule, future).flagged);
}

TEST_F(AutoValidateTest, MethodNamesAreStable) {
  EXPECT_STREQ(MethodName(Method::kFmdv), "FMDV");
  EXPECT_STREQ(MethodName(Method::kFmdvV), "FMDV-V");
  EXPECT_STREQ(MethodName(Method::kFmdvH), "FMDV-H");
  EXPECT_STREQ(MethodName(Method::kFmdvVH), "FMDV-VH");
  EXPECT_STREQ(HomogeneityTestName(HomogeneityTest::kFisherExact),
               "fisher-exact");
}

TEST_F(AutoValidateTest, AutoTagReturnsRestrictivePattern) {
  const auto train = DomainColumn("guid", 60, 8);
  auto tag = engine_->AutoTag(train);
  ASSERT_TRUE(tag.ok()) << tag.status().ToString();
  // The tag must describe GUIDs tightly (fixed-length segments), not loosely.
  EXPECT_EQ(tag->ToString(),
            "<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}");
}

TEST_F(AutoValidateTest, CmdvIsAtLeastAsRestrictiveAsFmdv) {
  const auto train = DomainColumn("date_mdy_text", 60, 9);
  auto fmdv = engine_->Train(train, Method::kFmdv);
  auto cmdv = engine_->TrainCmdv(train);
  ASSERT_TRUE(fmdv.ok());
  ASSERT_TRUE(cmdv.ok());
  EXPECT_LE(cmdv->coverage, fmdv->coverage);
}

TEST_F(AutoValidateTest, NoIndexAgreesWithIndexedFmdvOnPattern) {
  // The no-index reference (Figure 14) must produce an equivalent rule for a
  // well-supported domain.
  const auto train = DomainColumn("time_hms", 50, 10);
  auto indexed = engine_->Train(train, Method::kFmdv);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  auto scan = TrainFmdvNoIndex(*corpus_, train, engine_->options());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(indexed->pattern.ToString(), scan->pattern.ToString());
}

TEST_F(AutoValidateTest, TrainOnEmptyColumnFails) {
  auto rule = engine_->Train({}, Method::kFmdvVH);
  EXPECT_FALSE(rule.ok());
}

TEST_F(AutoValidateTest, InfeasibleTrainingNamesTheDistinctCap) {
  // A clean column of one shape with more distinct values than
  // max_distinct_values: the rows past the cap join no shape group, so
  // every method is Infeasible, and each says that is why.
  std::vector<std::string> wide;
  for (int i = 0; i < 2000; ++i) {
    char value[16];
    std::snprintf(value, sizeof(value), "%04d-%02d", i, i % 100);
    wide.push_back(value);
  }
  ASSERT_GT(wide.size(), engine_->options().gen.max_distinct_values);
  const auto expect_cap = [](const Status& st, const char* method) {
    EXPECT_EQ(st.code(), StatusCode::kInfeasible) << method;
    EXPECT_NE(st.message().find("max_distinct_values"), std::string::npos)
        << method << ": " << st.ToString();
  };
  for (const Method m :
       {Method::kFmdv, Method::kFmdvH, Method::kFmdvV, Method::kFmdvVH}) {
    expect_cap(engine_->Train(wide, m).status(), MethodName(m));
  }
  expect_cap(TrainFmdvNoIndex(*corpus_, wide, engine_->options()).status(),
             "no-index");

  // Few distinct values and one empty one: the empty value is the cause.
  std::vector<std::string> with_empty(wide.begin(), wide.begin() + 50);
  with_empty.push_back("");
  const Status st = engine_->Train(with_empty, Method::kFmdv).status();
  EXPECT_EQ(st.code(), StatusCode::kInfeasible);
  EXPECT_NE(st.message().find("empty values"), std::string::npos)
      << st.ToString();
}

TEST_F(AutoValidateTest, HorizontalCutDoesNotDependOnRowOrder) {
  // A full distinct cap of dddd-dd values and 10,000 rows of 100 IPv4
  // addresses: the addresses are the heaviest shape whichever rows come
  // first, so both orders cut the 1,024 dates and train the same rule.
  std::vector<std::string> dates;
  for (int i = 0; i < 1024; ++i) {
    char value[16];
    std::snprintf(value, sizeof(value), "%04d-%02d", i, i % 100);
    dates.push_back(value);
  }
  ASSERT_EQ(dates.size(), engine_->options().gen.max_distinct_values);
  const auto addresses = DomainColumn("ipv4", 100, 11);
  std::vector<std::string> rows;
  for (int i = 0; i < 100; ++i) {
    rows.insert(rows.end(), addresses.begin(), addresses.end());
  }
  std::vector<std::string> dates_first = dates;
  dates_first.insert(dates_first.end(), rows.begin(), rows.end());
  std::vector<std::string> addresses_first = rows;
  addresses_first.insert(addresses_first.end(), dates.begin(), dates.end());

  for (const Method m : {Method::kFmdvH, Method::kFmdvVH}) {
    auto a = engine_->Train(dates_first, m);
    auto b = engine_->Train(addresses_first, m);
    ASSERT_TRUE(a.ok()) << MethodName(m) << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << MethodName(m) << ": " << b.status().ToString();
    EXPECT_EQ(a->pattern.ToString(), "<digit>+.<digit>+.<digit>+.<digit>+")
        << MethodName(m);
    EXPECT_EQ(a->train_nonconforming, 1024u) << MethodName(m);
    EXPECT_EQ(a->Serialize(), b->Serialize()) << MethodName(m);
  }
}

// Golden of every training outcome on a fixed lake: each column's training
// prefix (a tenth of it, at least two rows, as the benchmark's TRAIN pass
// takes it) and the whole column, under the four methods, CMDV and AutoTag,
// at two coverage floors and two thetas. The hash covers each outcome's
// status code and its serialized rule (AutoTag: its pattern text), so a
// change to the trainers that moves any verdict or any rule fails here. If
// a change is MEANT to alter trained rules, re-record the constants and say
// so in the PR.
TEST(TrainedRuleGoldenTest, EveryOutcomeMatchesGolden) {
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(60, 7));
  const PatternIndex index = BuildIndex(corpus, IndexerConfig{});
  std::string outcomes;
  size_t count = 0;
  size_t trained = 0;
  const auto record = [&](const Status& status, const auto& text_of) {
    ++count;
    outcomes += std::to_string(static_cast<int>(status.code()));
    outcomes += '|';
    if (status.ok()) {
      outcomes += text_of();
      ++trained;
    }
    outcomes += '\n';
  };
  for (const uint64_t min_coverage : {5, 20}) {
    for (const double theta : {0.1, 0.5}) {
      AutoValidateOptions opts;
      opts.min_coverage = min_coverage;
      opts.theta = theta;
      const AutoValidate engine(&index, opts);
      for (const Column* column : corpus.AllColumns()) {
        const size_t n = column->values.size();
        const size_t k = std::min(n, std::max<size_t>(2, (n + 9) / 10));
        const std::span<const std::string> prefix(column->values.data(), k);
        for (const ColumnView values :
             {ColumnView(prefix), ColumnView(column->values)}) {
          for (const Method m : {Method::kFmdv, Method::kFmdvV,
                                 Method::kFmdvH, Method::kFmdvVH}) {
            const auto rule = engine.Train(values, m);
            record(rule.status(), [&] { return rule->Serialize(); });
          }
          const auto cmdv = engine.TrainCmdv(values);
          record(cmdv.status(), [&] { return cmdv->Serialize(); });
          const auto tag = engine.AutoTag(values);
          record(tag.status(), [&] { return tag->ToString(); });
        }
      }
    }
  }
  EXPECT_EQ(count, 3024u);
  EXPECT_EQ(trained, 432u);
  EXPECT_EQ(PolyHash64(outcomes), 0xd896aecce8d7d9d3ULL);
}

}  // namespace
}  // namespace av
