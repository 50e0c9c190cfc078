// RuleLifecycle tests: TTL meta stamping, deterministic expiry through the
// injectable clock, violation-triggered retraining, one-generation warm
// swaps per scan, and AVRULESET2 persistence of the lifecycle meta section.
#include "core/rule_lifecycle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/temp_file.h"
#include "lakegen/domains.h"
#include "tests/test_util.h"

namespace av {
namespace {

class RuleLifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(testutil::DomainsCorpus({
        {"ipv4", 25},
        {"iso_date", 25},
    }));
    index_ = new PatternIndex(testutil::BuildTestIndex(*corpus_));
  }
  static void TearDownTestSuite() {
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

  std::unique_ptr<ValidationService> MakeService() {
    AutoValidateOptions opts;
    opts.min_coverage = 5;
    return std::make_unique<ValidationService>(index_, opts,
                                               /*num_train_threads=*/2);
  }

  /// A lifecycle on a deterministic clock starting at t=1'000'000 ms.
  std::unique_ptr<RuleLifecycle> MakeLifecycle(ValidationService* service,
                                               RuleLifecycleOptions opts) {
    now_ = std::make_shared<std::atomic<uint64_t>>(1'000'000);
    auto now = now_;
    opts.now_ms = [now] { return now->load(); };
    return std::make_unique<RuleLifecycle>(service, std::move(opts));
  }

  /// The background scanner reads the clock while the test advances it.
  void AdvanceClock(uint64_t ms) { *now_ += ms; }

  static Corpus* corpus_;
  static PatternIndex* index_;
  std::shared_ptr<std::atomic<uint64_t>> now_;
};

Corpus* RuleLifecycleTest::corpus_ = nullptr;
PatternIndex* RuleLifecycleTest::index_ = nullptr;

TEST_F(RuleLifecycleTest, TrainStampsTtlMeta) {
  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.default_ttl_ms = 60'000;
  auto lifecycle = MakeLifecycle(service.get(), opts);

  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());
  auto meta = service->FindMeta("day");
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->trained_at_ms, 1'000'000u);
  EXPECT_EQ(meta->ttl_ms, 60'000u);
  EXPECT_EQ(meta->retrains, 0u);

  // Explicit TTL overrides the default.
  ASSERT_TRUE(lifecycle
                  ->Train("ip", DomainColumn("ipv4", 60, 2), Method::kFmdvVH,
                          /*ttl_ms=*/5'000)
                  .ok());
  EXPECT_EQ(service->FindMeta("ip")->ttl_ms, 5'000u);

  // Rules installed outside the lifecycle carry no meta and never expire.
  EXPECT_FALSE(RuleMeta{}.ExpiredAt(now_->load() + (1u << 30)));
}

TEST_F(RuleLifecycleTest, ScanRetrainsExpiredRulesOnly) {
  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.default_ttl_ms = 60'000;
  auto lifecycle = MakeLifecycle(service.get(), opts);
  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());
  ASSERT_TRUE(lifecycle
                  ->Train("ip", DomainColumn("ipv4", 60, 2), Method::kFmdvVH,
                          /*ttl_ms=*/600'000)
                  .ok());
  const uint64_t version_before = service->version();

  // Not due yet: nothing happens, the pass is counted.
  EXPECT_EQ(lifecycle->ScanOnce(), 0u);
  EXPECT_EQ(service->version(), version_before);

  // 61s later "day" (60s TTL) is stale, "ip" (600s) is not.
  AdvanceClock(61'000);
  EXPECT_EQ(lifecycle->ScanOnce(), 1u);
  EXPECT_EQ(lifecycle->retrains_completed(), 1u);
  auto day = service->FindMeta("day");
  ASSERT_TRUE(day.has_value());
  EXPECT_EQ(day->trained_at_ms, now_->load());  // freshness restored
  EXPECT_EQ(day->ttl_ms, 60'000u);       // TTL carried forward
  EXPECT_EQ(day->retrains, 1u);
  EXPECT_EQ(service->FindMeta("ip")->retrains, 0u);
  EXPECT_EQ(service->version(), version_before + 1);

  // The retrained rule still validates its domain.
  auto report = service->Validate("day", DomainColumn("iso_date", 80, 9));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->flagged);
}

TEST_F(RuleLifecycleTest, ScanInstallsOneGenerationForManyRetrains) {
  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.default_ttl_ms = 10'000;
  auto lifecycle = MakeLifecycle(service.get(), opts);
  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());
  ASSERT_TRUE(lifecycle->Train("ip", DomainColumn("ipv4", 60, 2)).ok());
  const uint64_t version_before = service->version();

  AdvanceClock(20'000);
  EXPECT_EQ(lifecycle->ScanOnce(), 2u);
  // Both retrains landed as ONE warm-swapped generation.
  EXPECT_EQ(service->version(), version_before + 1);
  EXPECT_EQ(service->FindMeta("day")->retrains, 1u);
  EXPECT_EQ(service->FindMeta("ip")->retrains, 1u);
}

TEST_F(RuleLifecycleTest, DueRuleWithoutCachedSourceIsSkippedNotBlocked) {
  auto service = MakeService();
  auto lifecycle = MakeLifecycle(service.get(), RuleLifecycleOptions{});

  // An expired rule that arrived via load/UpsertBatch — the lifecycle never
  // saw its training data, so there is nothing to retrain from.
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<digit>{4}");
  rule.segments = {rule.pattern};
  rule.train_size = 100;
  RuleMeta meta;
  meta.trained_at_ms = 1;  // long expired at t=1'000'000
  meta.ttl_ms = 2;
  std::vector<ValidationService::RuleUpdate> batch;
  batch.push_back({"orphan", rule, meta});
  service->UpsertBatch(std::move(batch));

  EXPECT_EQ(lifecycle->ScanOnce(), 0u);
  EXPECT_EQ(lifecycle->retrains_skipped(), 1u);
  EXPECT_EQ(service->FindMeta("orphan")->retrains, 0u);

  // RecordBatch supplies a source from live traffic; the next scan heals it.
  lifecycle->RecordBatch("orphan", DomainColumn("iso_date", 60, 3));
  EXPECT_EQ(lifecycle->ScanOnce(), 1u);
  EXPECT_EQ(service->FindMeta("orphan")->retrains, 1u);
}

TEST_F(RuleLifecycleTest, ViolationThresholdTriggersRetrain) {
  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.violation_threshold = 3;  // no TTL: violations alone drive retrain
  auto lifecycle = MakeLifecycle(service.get(), opts);
  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());

  lifecycle->RecordOutcome("day", true);
  lifecycle->RecordOutcome("day", false);  // clean outcomes don't count
  lifecycle->RecordOutcome("day", true);
  EXPECT_EQ(lifecycle->ScanOnce(), 0u);  // 2 < threshold

  lifecycle->RecordOutcome("day", true);
  EXPECT_EQ(lifecycle->ScanOnce(), 1u);
  EXPECT_EQ(service->FindMeta("day")->retrains, 1u);

  // The counter reset with the retrain: no immediate second retrain.
  EXPECT_EQ(lifecycle->ScanOnce(), 0u);
}

TEST_F(RuleLifecycleTest, BackgroundScannerRetrainsWithoutBlockingReaders) {
  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.default_ttl_ms = 1;  // expires immediately on the fake clock
  opts.scan_interval_ms = 2;
  auto lifecycle = MakeLifecycle(service.get(), opts);
  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());
  AdvanceClock(10);

  lifecycle->StartScanner();
  const auto probe = DomainColumn("iso_date", 40, 7);
  // Readers keep validating while the scanner retrains in the background.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (lifecycle->retrains_completed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    auto report = service->Validate("day", probe);
    ASSERT_TRUE(report.ok());
    AdvanceClock(10);  // keep the rule expiring so every tick has work
  }
  lifecycle->StopScanner();
  EXPECT_GT(lifecycle->retrains_completed(), 0u);
  EXPECT_GT(lifecycle->scans(), 0u);
  EXPECT_GE(service->FindMeta("day")->retrains, 1u);
}

// ---------------------------------------------------------------------------
// AVRULESET2 lifecycle-meta persistence.

TEST_F(RuleLifecycleTest, SaveLoadRoundTripsMeta) {
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("rules.avrs");

  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.default_ttl_ms = 123'456;
  auto lifecycle = MakeLifecycle(service.get(), opts);
  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());
  ASSERT_TRUE(lifecycle->Train("ip", DomainColumn("ipv4", 60, 2)).ok());
  AdvanceClock(200'000);
  ASSERT_EQ(lifecycle->ScanOnce(), 2u);  // so retrains is non-zero too
  ASSERT_TRUE(service->Save(path).ok());

  ValidationService loaded(nullptr, AutoValidateOptions{}, 1);
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.version(), service->version());
  for (const std::string name : {"day", "ip"}) {
    const auto want = service->FindMeta(name);
    const auto got = loaded.FindMeta(name);
    ASSERT_TRUE(want.has_value() && got.has_value()) << name;
    EXPECT_EQ(*got, *want) << name;
  }

  // A TTL loaded from disk keeps driving expiry in the new process.
  EXPECT_TRUE(loaded.FindMeta("day")->ExpiredAt(now_->load() + 200'000));
}

TEST_F(RuleLifecycleTest, MetaFreeSaveKeepsPreLifecycleBytes) {
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("rules.avrs");

  // A store with rules but no lifecycle meta must serialize without any
  // meta section — byte-compatible with pre-lifecycle writers and readers.
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<digit>+");
  rule.segments = {rule.pattern};
  rule.train_size = 10;
  service.Upsert("plain", std::move(rule));
  ASSERT_TRUE(service.Save(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->find("meta="), std::string::npos);
  EXPECT_EQ(bytes->find("AVRULEMETA1"), std::string::npos);
}

TEST_F(RuleLifecycleTest, LoaderRejectsMalformedMetaSections) {
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("rules.avrs");

  auto service = MakeService();
  RuleLifecycleOptions opts;
  opts.default_ttl_ms = 1000;
  auto lifecycle = MakeLifecycle(service.get(), opts);
  ASSERT_TRUE(lifecycle->Train("day", DomainColumn("iso_date", 60, 1)).ok());
  ASSERT_TRUE(lifecycle->Train("ip", DomainColumn("ipv4", 60, 2)).ok());
  ASSERT_TRUE(service->Save(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  // An AVRULESET2 file ends in a 24-byte checksum trailer, so ANY byte edit
  // below would be rejected by the trailer before the parser ever saw it.
  // Rebadge the text payload as AVRULESET1 (no trailer on the V1 path) so
  // the parser's own meta-section checks are what these edits exercise.
  ASSERT_GT(bytes->size(), kTrailerBytes);
  std::string v1 = bytes->substr(0, bytes->size() - kTrailerBytes);
  ASSERT_EQ(v1.back(), '\n');
  v1.replace(0, 10, "AVRULESET1");
  ASSERT_NE(v1.find("day|AVRULEMETA1"), std::string::npos);
  ASSERT_TRUE(ValidationService::ParseRuleSetBuffer(v1).ok());  // control

  // Meta naming a rule that does not exist.
  std::string orphan = v1;
  orphan.replace(orphan.find("day|AVRULEMETA1"), 3, "bad");
  EXPECT_FALSE(ValidationService::ParseRuleSetBuffer(orphan).ok());

  // Two meta entries for the same rule.
  std::string dup = v1;
  dup.replace(dup.find("ip|AVRULEMETA1"), 2, "day");
  EXPECT_FALSE(ValidationService::ParseRuleSetBuffer(dup).ok());

  // A trailing field on a meta line.
  std::string trailing = v1;
  trailing.insert(trailing.size() - 1, "|x=1");
  EXPECT_FALSE(ValidationService::ParseRuleSetBuffer(trailing).ok());

  // A meta count exceeding the rule count.
  std::string overcount = v1;
  overcount.replace(overcount.find("|meta=2"), 7, "|meta=3");
  EXPECT_FALSE(ValidationService::ParseRuleSetBuffer(overcount).ok());
}

}  // namespace
}  // namespace av
