#include "core/validation_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <thread>

#include "common/durable_file.h"
#include "common/rng.h"
#include "lakegen/domains.h"
#include "tests/test_util.h"

namespace av {
namespace {

ValidationRule DigitsRule(uint64_t train_size, uint64_t train_bad) {
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<digit>+");
  rule.segments = {rule.pattern};
  rule.train_size = train_size;
  rule.train_nonconforming = train_bad;
  return rule;
}

std::vector<std::string> DigitBatch(size_t good, size_t bad) {
  std::vector<std::string> values;
  for (size_t i = 0; i < good; ++i) values.push_back(std::to_string(100 + i));
  for (size_t i = 0; i < bad; ++i) values.push_back("N/A");
  return values;
}

// ---------------------------------------------------------------------------
// Streaming sessions: micro-batch == single-pass.

TEST(ValidationSessionTest, MicroBatchSplitsEqualSinglePass) {
  const ValidationRule rule = DigitsRule(1000, 1);
  const auto batch = DigitBatch(855, 45);
  const ValidationReport whole = ValidateColumn(rule, batch);

  // Feed the same batch as micro-batches of every split width, including
  // degenerate 1-value batches.
  for (const size_t chunk : {1u, 7u, 100u, 855u, 900u}) {
    ValidationSession session(rule);
    const std::span<const std::string> all(batch);
    for (size_t begin = 0; begin < batch.size(); begin += chunk) {
      session.Feed(all.subspan(begin, std::min(chunk, batch.size() - begin)));
    }
    const ValidationReport streamed = session.Finish();
    EXPECT_EQ(streamed.total, whole.total) << "chunk=" << chunk;
    EXPECT_EQ(streamed.nonconforming, whole.nonconforming);
    EXPECT_DOUBLE_EQ(streamed.theta_test, whole.theta_test);
    EXPECT_DOUBLE_EQ(streamed.p_value, whole.p_value);
    EXPECT_EQ(streamed.flagged, whole.flagged);
    EXPECT_EQ(streamed.sample_violations, whole.sample_violations);
  }
}

TEST(ValidationSessionTest, StatsMergeIsAssociative) {
  const ValidationRule rule = DigitsRule(1000, 1);
  const auto b1 = DigitBatch(100, 3);
  const auto b2 = DigitBatch(50, 2);
  const auto b3 = DigitBatch(200, 1);
  constexpr size_t kMax = 5;

  const auto stats_of = [&](const std::vector<std::string>& b) {
    ValidationStats s;
    PatternMatcher m(rule.pattern);
    AccumulateValidation(m, b, kMax, &s);
    return s;
  };
  const ValidationStats s1 = stats_of(b1), s2 = stats_of(b2),
                        s3 = stats_of(b3);

  const ValidationStats left =
      ValidationStats::Merge(ValidationStats::Merge(s1, s2, kMax), s3, kMax);
  const ValidationStats right =
      ValidationStats::Merge(s1, ValidationStats::Merge(s2, s3, kMax), kMax);
  EXPECT_EQ(left.total, right.total);
  EXPECT_EQ(left.nonconforming, right.nonconforming);
  EXPECT_EQ(left.sample_violations, right.sample_violations);

  // Merged shard stats equal the single concatenated pass.
  std::vector<std::string> all = b1;
  all.insert(all.end(), b2.begin(), b2.end());
  all.insert(all.end(), b3.begin(), b3.end());
  const ValidationStats whole = stats_of(all);
  EXPECT_EQ(left.total, whole.total);
  EXPECT_EQ(left.nonconforming, whole.nonconforming);
  EXPECT_EQ(left.sample_violations, whole.sample_violations);

  // And the homogeneity test sees identical counts either way.
  const ValidationReport merged_report = FinishValidation(rule, left);
  const ValidationReport whole_report = FinishValidation(rule, whole);
  EXPECT_EQ(merged_report.nonconforming, whole_report.nonconforming);
  EXPECT_DOUBLE_EQ(merged_report.p_value, whole_report.p_value);
  EXPECT_EQ(merged_report.flagged, whole_report.flagged);
}

TEST(ValidationSessionTest, AbsorbShardsEqualsSequentialFeed) {
  const ValidationRule rule = DigitsRule(1000, 1);
  const auto b1 = DigitBatch(300, 20);
  const auto b2 = DigitBatch(400, 30);

  ValidationSession fed(rule);
  fed.Feed(b1);
  fed.Feed(b2);

  // Shard 2 validated independently (e.g. on another thread), then absorbed.
  ValidationSession shard1(rule);
  shard1.Feed(b1);
  ValidationSession shard2(rule);
  shard2.Feed(b2);
  ValidationSession merged(rule);
  merged.Absorb(shard1.stats());
  merged.Absorb(shard2.stats());

  const auto a = fed.Finish();
  const auto b = merged.Finish();
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.nonconforming, b.nonconforming);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.sample_violations, b.sample_violations);
}

TEST(ValidationSessionTest, WeightedViewEqualsExpandedColumn) {
  const ValidationRule rule = DigitsRule(100, 0);
  // (value, count) pre-aggregated input vs its row-expanded equivalent.
  const std::vector<std::string_view> distinct = {"123", "456", "N/A"};
  const std::vector<uint32_t> weights = {40, 9, 3};
  std::vector<std::string> expanded;
  for (size_t i = 0; i < distinct.size(); ++i) {
    for (uint32_t k = 0; k < weights[i]; ++k) {
      expanded.emplace_back(distinct[i]);
    }
  }
  const auto weighted =
      ValidateColumn(rule, ColumnView(distinct, weights));
  const auto flat = ValidateColumn(rule, expanded);
  EXPECT_EQ(weighted.total, flat.total);
  EXPECT_EQ(weighted.nonconforming, flat.nonconforming);
  EXPECT_DOUBLE_EQ(weighted.p_value, flat.p_value);
  EXPECT_EQ(weighted.flagged, flat.flagged);
}

TEST(ValidationSessionTest, SampleViolationCapConfigurable) {
  const ValidationRule rule = DigitsRule(10, 0);
  std::vector<std::string> batch;
  for (int i = 0; i < 50; ++i) batch.push_back("bad-" + std::to_string(i));
  EXPECT_EQ(ValidateColumn(rule, batch).sample_violations.size(), 5u);
  EXPECT_EQ(ValidateColumn(rule, batch, 12).sample_violations.size(), 12u);
  EXPECT_EQ(ValidateColumn(rule, batch, 0).sample_violations.size(), 0u);

  AutoValidateOptions opts;
  opts.max_sample_violations = 2;
  const AutoValidate engine(nullptr, opts);
  EXPECT_EQ(engine.Validate(rule, batch).sample_violations.size(), 2u);
}

// ---------------------------------------------------------------------------
// Rule store semantics (no index needed).

TEST(ValidationServiceStoreTest, UpsertFindRemoveVersioning) {
  ValidationService service(nullptr, AutoValidateOptions{},
                            /*num_train_threads=*/1);
  EXPECT_EQ(service.version(), 0u);
  EXPECT_EQ(service.size(), 0u);
  EXPECT_EQ(service.Find("locale"), nullptr);

  service.Upsert("locale", DigitsRule(100, 0));
  EXPECT_EQ(service.version(), 1u);
  ASSERT_NE(service.Find("locale"), nullptr);
  EXPECT_EQ(service.Find("locale")->train_size, 100u);

  service.Upsert("locale", DigitsRule(200, 1));
  EXPECT_EQ(service.version(), 2u);
  EXPECT_EQ(service.Find("locale")->train_size, 200u);

  // A snapshot taken before a removal keeps its rules alive.
  const auto snapshot = service.Snapshot();
  EXPECT_TRUE(service.Remove("locale"));
  EXPECT_EQ(service.version(), 3u);
  EXPECT_EQ(service.Find("locale"), nullptr);
  EXPECT_EQ(snapshot->rules.Find("locale")->rule->train_size, 200u);

  // Removing a missing rule neither succeeds nor bumps the version.
  EXPECT_FALSE(service.Remove("locale"));
  EXPECT_EQ(service.version(), 3u);
}

TEST(ValidationServiceStoreTest, ValidateByNameAndNotFound) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));

  const auto drifted = service.Validate("ids", DigitBatch(855, 45));
  ASSERT_TRUE(drifted.ok());
  EXPECT_TRUE(drifted->flagged);

  const auto clean = service.Validate("ids", DigitBatch(900, 0));
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->flagged);

  EXPECT_EQ(service.Validate("unknown", DigitBatch(10, 0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.OpenSession("unknown").status().code(),
            StatusCode::kNotFound);
}

TEST(ValidationServiceStoreTest, TrainWithoutIndexFails) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  const auto batch = DigitBatch(50, 0);
  EXPECT_EQ(service.Train("x", batch).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<ValidationService::NamedColumn> columns = {{"x", batch}};
  const auto outcomes = service.TrainAll(columns);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(ValidationServiceStoreTest, SessionSurvivesStoreUpdate) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  auto session = service.OpenSession("ids");
  ASSERT_TRUE(session.ok());
  session->Feed(DigitBatch(400, 20));
  // Concurrent store churn must not invalidate the open session's rule.
  service.Upsert("ids", DigitsRule(7, 7));
  EXPECT_TRUE(service.Remove("ids"));
  session->Feed(DigitBatch(455, 25));
  const auto report = session->Finish();
  EXPECT_EQ(report.total, 900u);
  EXPECT_EQ(report.nonconforming, 45u);
  EXPECT_TRUE(report.flagged);
  EXPECT_EQ(session->rule().train_size, 1000u);
}

TEST(ValidationServiceStoreTest, SaveLoadRoundTrip) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("plain", DigitsRule(100, 2));
  ValidationRule awkward = DigitsRule(10, 0);
  awkward.pattern = Pattern({Atom::Literal("a|b\\"),
                             Atom::Var(AtomKind::kDigitsVar)});
  awkward.segments = {awkward.pattern};
  service.Upsert("weird|name\\col", awkward);

  const std::string path =
      ::testing::TempDir() + "/ruleset_roundtrip.avrs";
  ASSERT_TRUE(service.Save(path).ok());

  ValidationService loaded(nullptr, AutoValidateOptions{}, 1);
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.version(), service.version());
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_NE(loaded.Find("plain"), nullptr);
  ASSERT_NE(loaded.Find("weird|name\\col"), nullptr);
  EXPECT_EQ(loaded.Find("plain")->Serialize(),
            service.Find("plain")->Serialize());
  EXPECT_EQ(loaded.Find("weird|name\\col")->Serialize(), awkward.Serialize());

  // Deterministic bytes: saving the loaded set reproduces the file.
  const std::string path2 = ::testing::TempDir() + "/ruleset_roundtrip2.avrs";
  ASSERT_TRUE(loaded.Save(path2).ok());
  std::ifstream f1(path), f2(path2);
  const std::string c1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string c2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(c1, c2);
}

TEST(ValidationServiceStoreTest, LoadRejectsMalformedFiles) {
  const auto write_file = [](const std::string& name,
                             const std::string& content) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    return path;
  };
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("keep", DigitsRule(5, 0));

  EXPECT_EQ(service.Load("/nonexistent/path.avrs").code(),
            StatusCode::kIOError);
  EXPECT_EQ(service.Load(write_file("empty.avrs", "")).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(service.Load(write_file("magic.avrs", "BOGUS|version=1|count=0\n"))
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      service.Load(write_file("hdr.avrs", "AVRULESET1|version=x|count=0\n"))
          .code(),
      StatusCode::kCorruption);
  EXPECT_EQ(
      service.Load(write_file("hdr2.avrs", "AVRULESET1|version=1|count= -1\n"))
          .code(),
      StatusCode::kCorruption);
  EXPECT_EQ(service
                .Load(write_file("trunc.avrs",
                                 "AVRULESET1|version=1|count=2\n"
                                 "a|AVRULE1|pattern=<digit>+\n"))
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(service
                .Load(write_file("badrule.avrs",
                                 "AVRULESET1|version=1|count=1\n"
                                 "a|AVRULE1|cov=notanumber|pattern=<digit>+\n"))
                .code(),
            StatusCode::kCorruption);

  // Failed loads must leave the store untouched.
  EXPECT_EQ(service.size(), 1u);
  EXPECT_NE(service.Find("keep"), nullptr);
}

TEST(ValidationServiceStoreTest, ExplicitZeroMetaLineSavesBackExactly) {
  // A file may carry an AVRULEMETA1 line whose fields are all zero; the
  // store keeps it as loaded, so Save(Load(f)) == f byte for byte.
  const std::string rule = DigitsRule(10, 1).Serialize();
  const std::string payload =
      "AVRULESET2|version=7|count=2|meta=1\n"
      "a|" + rule + "\n" +
      "b|" + rule + "\n" +
      "a|AVRULEMETA1|trained_at_ms=0|ttl_ms=0|retrains=0\n";
  const std::string path = ::testing::TempDir() + "/zero_meta.avrs";
  {
    DurableFileWriter out;
    ASSERT_TRUE(out.Open(path).ok());
    ASSERT_TRUE(out.Append(payload).ok());
    ASSERT_TRUE(out.Commit().ok());
  }
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  ASSERT_TRUE(service.Load(path).ok());
  EXPECT_EQ(service.FindMeta("a"), RuleMeta{});
  const std::string resaved = ::testing::TempDir() + "/zero_meta_2.avrs";
  ASSERT_TRUE(service.Save(resaved).ok());
  const auto original = ReadFileToString(path);
  const auto copy = ReadFileToString(resaved);
  ASSERT_TRUE(original.ok() && copy.ok());
  EXPECT_EQ(*copy, *original);
}

TEST(ValidationServiceStoreTest, UpsertBatchSkipsAStaleRule) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  RuleMeta meta;
  meta.trained_at_ms = 5;
  meta.ttl_ms = 10;
  const auto batch_of = [](ValidationService::RuleUpdate u) {
    std::vector<ValidationService::RuleUpdate> batch;
    batch.push_back(std::move(u));
    return batch;
  };

  // A retrain read rule 1; rule 2 landed before the retrain finished.
  service.Upsert("ids", DigitsRule(1, 0));
  const auto scanned = service.Find("ids");
  service.Upsert("ids", DigitsRule(2, 0));
  ASSERT_EQ(service.version(), 2u);
  EXPECT_EQ(service.UpsertBatch(batch_of({"ids", DigitsRule(3, 0), meta,
                                          scanned})),
            std::vector<bool>{false});
  EXPECT_EQ(service.version(), 2u);
  EXPECT_EQ(service.Find("ids")->train_size, 2u);
  EXPECT_EQ(service.FindMeta("ids"), RuleMeta{});

  // A rule removed meanwhile stays removed.
  const auto current = service.Find("ids");
  ASSERT_TRUE(service.Remove("ids"));
  EXPECT_EQ(service.UpsertBatch(batch_of({"ids", DigitsRule(4, 0), meta,
                                          current})),
            std::vector<bool>{false});
  EXPECT_EQ(service.version(), 3u);
  EXPECT_EQ(service.Find("ids"), nullptr);

  // In a mixed batch only the current rule is replaced, in one generation.
  service.Upsert("a", DigitsRule(5, 0));
  service.Upsert("b", DigitsRule(6, 0));
  const auto a = service.Find("a");
  const auto b = service.Find("b");
  service.Upsert("b", DigitsRule(7, 0));
  ASSERT_EQ(service.version(), 6u);
  std::vector<ValidationService::RuleUpdate> mixed;
  mixed.push_back({"a", DigitsRule(8, 0), meta, a});
  mixed.push_back({"b", DigitsRule(9, 0), meta, b});
  EXPECT_EQ(service.UpsertBatch(std::move(mixed)),
            (std::vector<bool>{true, false}));
  EXPECT_EQ(service.version(), 7u);
  EXPECT_EQ(service.Find("a")->train_size, 8u);
  EXPECT_EQ(service.FindMeta("a"), meta);
  EXPECT_EQ(service.Find("b")->train_size, 7u);
}

TEST(ValidationServiceStoreTest, UpsertBatchNeverLowersRetrains) {
  // A TRAIN reads no meta and installs retrains 0; a background retrain
  // that landed first has already raised the count to 2, and it stays.
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  const auto batch_of = [](ValidationService::RuleUpdate u) {
    std::vector<ValidationService::RuleUpdate> batch;
    batch.push_back(std::move(u));
    return batch;
  };
  RuleMeta retrained;
  retrained.trained_at_ms = 5;
  retrained.ttl_ms = 10;
  retrained.retrains = 2;
  ASSERT_EQ(service.UpsertBatch(batch_of({"ids", DigitsRule(1, 0), retrained})),
            std::vector<bool>{true});
  RuleMeta trained;
  trained.trained_at_ms = 7;
  trained.ttl_ms = 20;
  ASSERT_EQ(service.UpsertBatch(batch_of({"ids", DigitsRule(2, 0), trained})),
            std::vector<bool>{true});
  EXPECT_EQ(service.Find("ids")->train_size, 2u);
  const auto meta = service.FindMeta("ids");
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->trained_at_ms, 7u);
  EXPECT_EQ(meta->ttl_ms, 20u);
  EXPECT_EQ(meta->retrains, 2u);

  // A higher count still raises it.
  trained.retrains = 3;
  service.UpsertBatch(batch_of({"ids", DigitsRule(3, 0), trained}));
  EXPECT_EQ(service.FindMeta("ids")->retrains, 3u);
}

/// The store as a plain std::map: name -> (rule id, meta). A rule's id is
/// its train_size, unique per rule the test stores.
struct StoreModel {
  struct Entry {
    uint64_t id = 0;
    std::optional<RuleMeta> meta;
  };
  uint64_t version = 0;
  std::map<std::string, Entry, std::less<>> rules;
};

::testing::AssertionResult SnapshotMatchesModel(
    const ValidationService::RuleSet& set, const StoreModel& model) {
  if (set.version != model.version) {
    return ::testing::AssertionFailure()
           << "version " << set.version << ", model " << model.version;
  }
  if (set.rules.size() != model.rules.size()) {
    return ::testing::AssertionFailure()
           << "size " << set.rules.size() << ", model " << model.rules.size();
  }
  auto it = set.rules.begin();
  for (const auto& [name, want] : model.rules) {
    const auto& [got_name, got] = *it++;
    if (got_name != name || got.rule->train_size != want.id ||
        got.meta != want.meta) {
      return ::testing::AssertionFailure()
             << "entry " << got_name << " differs from model entry " << name;
    }
    const auto* found = set.rules.Find(name);
    if (found == nullptr || found->rule != got.rule) {
      return ::testing::AssertionFailure() << "Find misses " << name;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ValidationServiceStoreTest, MatchesModelAcrossRandomWrites) {
  // Random Upsert / UpsertBatch (duplicates, meta, compare-and-swap) /
  // Remove against a std::map model. After every write the live store
  // must equal the model, and every earlier snapshot its own copy of the
  // model: a write never changes what a published generation holds.
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  StoreModel model;
  Rng rng(17);
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    names.push_back(i % 7 == 0 ? "a-long-column-name-" + std::to_string(i)
                               : "col_" + std::to_string(i));
  }
  uint64_t next_id = 1;
  std::vector<std::pair<std::shared_ptr<const ValidationService::RuleSet>,
                        StoreModel>>
      history;
  for (int op = 0; op < 250; ++op) {
    const std::string& name = names[rng.Below(names.size())];
    const uint64_t kind = rng.Below(10);
    if (kind < 4) {
      service.Upsert(name, DigitsRule(next_id, 0));
      model.rules[name] = {next_id++, std::nullopt};
      ++model.version;
    } else if (kind < 6) {
      const bool present = model.rules.erase(name) == 1;
      EXPECT_EQ(service.Remove(name), present);
      if (present) ++model.version;
    } else {
      // One generation of up to six updates; some carry meta, some an
      // if_current taken from the live store or from an old snapshot.
      std::vector<ValidationService::RuleUpdate> batch;
      const size_t n = rng.Below(7);
      for (size_t i = 0; i < n; ++i) {
        ValidationService::RuleUpdate u;
        u.name = names[rng.Below(names.size())];
        u.rule = DigitsRule(next_id++, 0);
        if (rng.Below(3) != 0) {
          u.meta.trained_at_ms = rng.Below(3);
          u.meta.ttl_ms = rng.Below(3);
          u.meta.retrains = rng.Below(2);
        }
        const uint64_t guard = rng.Below(3);
        if (guard == 1) {
          u.if_current = service.Find(u.name);
        } else if (guard == 2 && !history.empty()) {
          const auto& old = history[rng.Below(history.size())].first;
          if (const auto* e = old->rules.Find(u.name)) u.if_current = e->rule;
        }
        batch.push_back(std::move(u));
      }
      std::vector<bool> want;
      for (const auto& u : batch) {
        const auto it = model.rules.find(u.name);
        const bool ok = u.if_current == nullptr ||
                        (it != model.rules.end() &&
                         it->second.id == u.if_current->train_size);
        want.push_back(ok);
        if (!ok) continue;
        // An install never lowers the stored retrain count.
        RuleMeta installed = u.meta;
        if (it != model.rules.end() && it->second.meta.has_value()) {
          installed.retrains =
              std::max(installed.retrains, it->second.meta->retrains);
        }
        std::optional<RuleMeta> meta;
        if (installed != RuleMeta{}) meta = installed;
        model.rules[u.name] = {u.rule.train_size, meta};
      }
      if (std::find(want.begin(), want.end(), true) != want.end()) {
        ++model.version;
      }
      ASSERT_EQ(service.UpsertBatch(std::move(batch)), want) << "op " << op;
    }

    const auto snapshot = service.Snapshot();
    ASSERT_TRUE(SnapshotMatchesModel(*snapshot, model)) << "after op " << op;
    EXPECT_EQ(service.version(), model.version);
    EXPECT_EQ(service.size(), model.rules.size());
    for (const std::string& n : names) {
      const auto it = model.rules.find(n);
      const auto rule = service.Find(n);
      const auto meta = service.FindMeta(n);
      if (it == model.rules.end()) {
        ASSERT_EQ(rule, nullptr) << n;
        ASSERT_FALSE(meta.has_value()) << n;
      } else {
        ASSERT_NE(rule, nullptr) << n;
        ASSERT_EQ(rule->train_size, it->second.id) << n;
        ASSERT_EQ(meta, it->second.meta.value_or(RuleMeta{})) << n;
      }
    }
    for (size_t h = 0; h < history.size(); ++h) {
      ASSERT_TRUE(SnapshotMatchesModel(*history[h].first, history[h].second))
          << "snapshot " << h << " changed by op " << op;
    }
    history.emplace_back(snapshot, model);
  }
}

// ---------------------------------------------------------------------------
// Table-level serving: ValidateAll / TableReport / TableSession.

ValidationRule LettersRule(uint64_t train_size, uint64_t train_bad) {
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<letter>+");
  rule.segments = {rule.pattern};
  rule.train_size = train_size;
  rule.train_nonconforming = train_bad;
  return rule;
}

std::vector<std::string> LetterBatch(size_t good, size_t bad) {
  std::vector<std::string> values;
  for (size_t i = 0; i < good; ++i) values.push_back("word" + std::string(1, 'a' + i % 26));
  for (size_t i = 0; i < bad; ++i) values.push_back("17-" + std::to_string(i % 4));
  return values;
}

void ExpectReportsEqual(const ValidationReport& a, const ValidationReport& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.nonconforming, b.nonconforming);
  EXPECT_DOUBLE_EQ(a.theta_test, b.theta_test);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.sample_violations, b.sample_violations);
}

TEST(ValidateAllTest, MatchesSingleColumnValidateBytewise) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  service.Upsert("names", LettersRule(500, 2));

  // Batches with repeated violating values, so sample dedup is exercised.
  const auto ids = DigitBatch(855, 45);
  const auto names = LetterBatch(400, 12);
  const auto orphan = DigitBatch(30, 0);
  const std::vector<NamedColumn> table = {
      {"ids", ids}, {"names", names}, {"unmonitored", orphan}};

  const TableReport report = service.ValidateAll(table);
  EXPECT_EQ(report.store_version, service.version());
  EXPECT_EQ(report.columns_total, 3u);
  EXPECT_EQ(report.columns_validated, 2u);
  EXPECT_EQ(report.columns_flagged, 2u);
  EXPECT_TRUE(report.any_flagged());
  EXPECT_EQ(report.rows_scanned, ids.size() + names.size());

  ASSERT_EQ(report.columns.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    const auto& col = report.columns[i];
    ASSERT_TRUE(col.status.ok()) << col.name;
    ASSERT_NE(col.rule, nullptr);
    const auto single =
        service.Validate(col.name, i == 0 ? ids : names);
    ASSERT_TRUE(single.ok());
    ExpectReportsEqual(col.report, *single);
  }
  EXPECT_EQ(report.columns[2].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(report.columns[2].rule, nullptr);
  EXPECT_EQ(report.Find("names"), &report.columns[1]);
  EXPECT_EQ(report.Find("nope"), nullptr);
}

TEST(ValidateAllTest, WeightedTableEqualsRowExpandedTable) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(100, 0));
  service.Upsert("names", LettersRule(100, 0));

  const std::vector<std::string_view> id_distinct = {"123", "456", "N/A",
                                                     "x9"};
  const std::vector<uint32_t> id_weights = {40, 9, 3, 2};
  const std::vector<std::string_view> name_distinct = {"alpha", "beta", "17"};
  const std::vector<uint32_t> name_weights = {25, 25, 4};

  const auto expand = [](const std::vector<std::string_view>& distinct,
                         const std::vector<uint32_t>& weights) {
    std::vector<std::string> out;
    for (size_t i = 0; i < distinct.size(); ++i) {
      for (uint32_t k = 0; k < weights[i]; ++k) out.emplace_back(distinct[i]);
    }
    return out;
  };
  const auto ids_expanded = expand(id_distinct, id_weights);
  const auto names_expanded = expand(name_distinct, name_weights);

  const TableReport weighted = service.ValidateAll(
      std::vector<NamedColumn>{{"ids", ColumnView(id_distinct, id_weights)},
                               {"names", ColumnView(name_distinct,
                                                    name_weights)}});
  const TableReport expanded = service.ValidateAll(std::vector<NamedColumn>{
      {"ids", ids_expanded}, {"names", names_expanded}});

  ASSERT_EQ(weighted.columns.size(), expanded.columns.size());
  EXPECT_EQ(weighted.rows_scanned, expanded.rows_scanned);
  EXPECT_EQ(weighted.columns_flagged, expanded.columns_flagged);
  for (size_t i = 0; i < weighted.columns.size(); ++i) {
    ExpectReportsEqual(weighted.columns[i].report,
                       expanded.columns[i].report);
  }
}

TEST(ValidateAllTest, TableReportMergeAssociativeForArbitraryShardSplits) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  service.Upsert("names", LettersRule(500, 2));
  const size_t max_samples = service.options().max_sample_violations;

  const auto ids = DigitBatch(300, 21);
  const auto names = LetterBatch(280, 41);
  const auto orphan = DigitBatch(321, 0);
  const auto table_of = [&](size_t begin, size_t end) {
    // Row-shard every column of the table with the same [begin, end) split.
    const auto slice = [&](const std::vector<std::string>& v) {
      return std::span<const std::string>(v).subspan(
          std::min(begin, v.size()),
          std::min(end, v.size()) - std::min(begin, v.size()));
    };
    return std::vector<NamedColumn>{{"ids", slice(ids)},
                                    {"names", slice(names)},
                                    {"unmonitored", slice(orphan)}};
  };
  const TableReport whole = service.ValidateAll(table_of(0, 321));

  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t cut1 = rng.Below(322);
    const size_t cut2 = cut1 + rng.Below(322 - cut1);
    const TableReport a = service.ValidateAll(table_of(0, cut1));
    const TableReport b = service.ValidateAll(table_of(cut1, cut2));
    const TableReport c = service.ValidateAll(table_of(cut2, 321));

    const TableReport left = TableReport::Merge(
        TableReport::Merge(a, b, max_samples), c, max_samples);
    const TableReport right = TableReport::Merge(
        a, TableReport::Merge(b, c, max_samples), max_samples);

    // Associativity: both groupings give identical reports (including
    // sample lists — cap'd concatenation is associative).
    ASSERT_EQ(left.columns.size(), right.columns.size());
    for (size_t i = 0; i < left.columns.size(); ++i) {
      EXPECT_EQ(left.columns[i].name, right.columns[i].name);
      EXPECT_EQ(left.columns[i].status.code(),
                right.columns[i].status.code());
      ExpectReportsEqual(left.columns[i].report, right.columns[i].report);
    }
    EXPECT_EQ(left.rows_scanned, right.rows_scanned);
    EXPECT_EQ(left.columns_flagged, right.columns_flagged);

    // Shard-reduce equals the single-pass table run, sample lists
    // included.
    EXPECT_EQ(left.store_version, whole.store_version);
    EXPECT_EQ(left.rows_scanned, whole.rows_scanned);
    ASSERT_EQ(left.columns.size(), whole.columns.size());
    for (size_t i = 0; i < whole.columns.size(); ++i) {
      ExpectReportsEqual(left.columns[i].report, whole.columns[i].report);
    }
  }

  // Self-merge is defined like ValidationStats: counts double, no UB.
  TableReport doubled = whole;
  doubled.MergeFrom(doubled, max_samples);
  EXPECT_EQ(doubled.rows_scanned, 2 * whole.rows_scanned);
  EXPECT_EQ(doubled.columns.size(), whole.columns.size());
  EXPECT_EQ(doubled.columns[0].stats.total, 2 * whole.columns[0].stats.total);
}

TEST(ValidateAllTest, MergeMatchesDuplicateColumnNamesByOccurrence) {
  // ValidateAll supports tables that repeat a column name (each entry gets
  // its own outcome). Regression: a first-name-match merge would fold both
  // of a shard's same-named entries into the FIRST entry here —
  // double-counting it and leaving the second entry un-merged. Outcomes
  // must match by (name, occurrence index).
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  const size_t max_samples = service.options().max_sample_violations;

  // Two distinct columns sharing the name: very different violation rates.
  const auto col_a = DigitBatch(200, 40);
  const auto col_b = DigitBatch(240, 0);
  const auto table_of = [&](size_t begin, size_t end) {
    const auto slice = [&](const std::vector<std::string>& v) {
      return std::span<const std::string>(v).subspan(begin, end - begin);
    };
    return std::vector<NamedColumn>{{"ids", slice(col_a)},
                                    {"ids", slice(col_b)}};
  };
  const TableReport whole = service.ValidateAll(table_of(0, 240));
  const TableReport merged =
      TableReport::Merge(service.ValidateAll(table_of(0, 100)),
                         service.ValidateAll(table_of(100, 240)), max_samples);

  ASSERT_EQ(merged.columns.size(), 2u);
  EXPECT_EQ(merged.columns[0].stats.total, whole.columns[0].stats.total);
  EXPECT_EQ(merged.columns[0].stats.nonconforming,
            whole.columns[0].stats.nonconforming);
  EXPECT_EQ(merged.columns[1].stats.total, whole.columns[1].stats.total);
  EXPECT_EQ(merged.columns[1].stats.nonconforming,
            whole.columns[1].stats.nonconforming);
  for (size_t i = 0; i < 2; ++i) {
    ExpectReportsEqual(merged.columns[i].report, whole.columns[i].report);
  }
  EXPECT_EQ(merged.rows_scanned, whole.rows_scanned);
  EXPECT_EQ(merged.columns_flagged, whole.columns_flagged);
}

#ifndef AV_TSAN  // death tests fork; see test_util.h
TEST(ValidateAllDeathTest, MergeAcrossStoreGenerationsAborts) {
  // Merging shards judged by different rule-store generations would blend
  // counts from different rules; the mismatch must fail fast in every
  // build mode, not just under assert.
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  const auto batch = DigitBatch(100, 5);
  const std::vector<NamedColumn> table = {{"ids", batch}};
  const TableReport gen1 = service.ValidateAll(table);
  service.Upsert("ids", DigitsRule(2000, 2));
  const TableReport gen2 = service.ValidateAll(table);
  ASSERT_NE(gen1.store_version, gen2.store_version);
  EXPECT_DEATH(TableReport::Merge(gen1, gen2, 5), "store generation");
}
#endif  // AV_TSAN

TEST(TableSessionTest, MicroBatchTableFeedsEqualWholeTableRun) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  service.Upsert("names", LettersRule(500, 2));

  const auto ids = DigitBatch(300, 21);
  const auto names = LetterBatch(280, 41);
  const TableReport whole = service.ValidateAll(
      std::vector<NamedColumn>{{"ids", ids}, {"names", names}});

  TableSession session = service.OpenTableSession();
  const uint64_t pinned_version = service.version();
  const std::span<const std::string> all_ids(ids);
  const std::span<const std::string> all_names(names);
  for (size_t b = 0; b < 4; ++b) {
    const size_t begin_i = b * (ids.size() / 4);
    const size_t end_i = b == 3 ? ids.size() : begin_i + ids.size() / 4;
    const size_t begin_n = b * (names.size() / 4);
    const size_t end_n = b == 3 ? names.size() : begin_n + names.size() / 4;
    const std::vector<NamedColumn> batch = {
        {"ids", all_ids.subspan(begin_i, end_i - begin_i)},
        {"names", all_names.subspan(begin_n, end_n - begin_n)}};
    session.Feed(batch);
    // Mid-stream store churn must not affect the pinned generation —
    // including a rule added for a column the session first sees later.
    if (b == 1) {
      service.Upsert("ids", DigitsRule(7, 7));
      service.Upsert("late", DigitsRule(10, 0));
    }
    if (b == 2) session.Feed("late", all_ids.subspan(0, 5));
  }

  EXPECT_EQ(session.store_version(), pinned_version);
  const TableReport streamed = session.Finish();
  EXPECT_EQ(streamed.store_version, pinned_version);
  ASSERT_EQ(streamed.columns.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(streamed.columns[i].name, whole.columns[i].name);
    ExpectReportsEqual(streamed.columns[i].report, whole.columns[i].report);
  }
  // "late" was upserted after the session was pinned: still unmonitored.
  EXPECT_EQ(streamed.columns[2].name, "late");
  EXPECT_EQ(streamed.columns[2].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(streamed.columns_validated, 2u);
  EXPECT_EQ(streamed.columns_flagged, whole.columns_flagged);
}

// ---------------------------------------------------------------------------
// Concurrency: snapshot reads under writer churn, parallel TrainAll.

TEST(ValidationServiceConcurrencyTest, ConcurrentValidateUnderWriterChurn) {
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  const auto clean = DigitBatch(900, 0);
  const auto drifted = DigitBatch(855, 45);
  // Four readers run the Fisher test on the drifted batch at once; each
  // p-value must be the single-threaded one, bit for bit.
  const double drifted_p = ValidateColumn(DigitsRule(1000, 1), drifted).p_value;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> validations{0};
  std::atomic<uint64_t> wrong{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const bool use_drifted = (t % 2) == 0;
        const auto report =
            service.Validate("ids", use_drifted ? drifted : clean);
        if (!report.ok() || report->flagged != use_drifted ||
            (use_drifted && report->p_value != drifted_p)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        validations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer churn: every upsert replaces the rule with an equivalent one
  // (same counts), so readers must observe identical verdicts throughout.
  // Churn continues until the readers have demonstrably raced against it
  // (progress-based, not iteration-based: on a loaded single-core box a
  // fixed writer loop can finish before any reader is even scheduled).
  int churns = 0;
  while (validations.load(std::memory_order_relaxed) < 200 || churns < 500) {
    service.Upsert("ids", DigitsRule(1000, 1));
    service.Upsert("other_" + std::to_string(churns % 7), DigitsRule(10, 0));
    ++churns;
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(validations.load(), 200u);
  EXPECT_GE(service.version(), 1001u);
}

TEST(ValidationServiceConcurrencyTest, ValidateAllNeverMixesGenerations) {
  // The store alternates between two rule generations for "ids": one that
  // flags the drifted batch and one (theta_train = 1.0) that never flags
  // anything. A table listing the same column twice must get BOTH outcomes
  // from one generation — identical verdict and p-value — no matter how the
  // writer interleaves. A per-column Find() implementation (no shared
  // snapshot) fails this under churn.
  ValidationService service(nullptr, AutoValidateOptions{}, 1);
  service.Upsert("ids", DigitsRule(1000, 1));
  const auto drifted = DigitBatch(855, 45);
  const std::vector<NamedColumn> table = {{"ids", drifted}, {"ids", drifted}};

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> mixed{0};
  std::atomic<uint64_t> flagged_seen{0};
  std::atomic<uint64_t> unflagged_seen{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const TableReport report = service.ValidateAll(table);
        const auto& a = report.columns[0];
        const auto& b = report.columns[1];
        if (!a.status.ok() || !b.status.ok() ||
            a.report.flagged != b.report.flagged ||
            a.report.p_value != b.report.p_value || a.rule != b.rule) {
          mixed.fetch_add(1, std::memory_order_relaxed);
        }
        (a.report.flagged ? flagged_seen : unflagged_seen)
            .fetch_add(1, std::memory_order_relaxed);
        runs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  int churns = 0;
  while (runs.load(std::memory_order_relaxed) < 200 || churns < 500) {
    service.Upsert("ids", (churns % 2 == 0) ? DigitsRule(7, 7)
                                            : DigitsRule(1000, 1));
    ++churns;
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_GE(runs.load(), 200u);
}

class ValidationServiceTrainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(testutil::DomainsCorpus({
        {"ipv4", 25},
        {"iso_date", 25},
        {"guid", 20},
        {"nl_phrase", 15},
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

  static Corpus* corpus_;
  static PatternIndex* index_;
};

Corpus* ValidationServiceTrainTest::corpus_ = nullptr;
PatternIndex* ValidationServiceTrainTest::index_ = nullptr;

TEST_F(ValidationServiceTrainTest, TrainAllFansOutAndInstallsOneGeneration) {
  AutoValidateOptions opts;
  opts.min_coverage = 5;
  ValidationService service(index_, opts, /*num_train_threads=*/4);

  const auto ips = DomainColumn("ipv4", 60, 1);
  const auto dates = DomainColumn("iso_date", 60, 2);
  const auto guids = DomainColumn("guid", 60, 3);
  std::vector<std::string> gibberish;  // heterogeneous: must abstain
  for (int i = 0; i < 40; ++i) {
    gibberish.push_back(i % 2 == 0 ? std::to_string(i)
                                   : "completely different " +
                                         std::to_string(i));
  }
  const std::vector<ValidationService::NamedColumn> columns = {
      {"src_ip", ips},
      {"day", dates},
      {"request_id", guids},
      {"junk", gibberish},
  };
  const auto outcomes = service.TrainAll(columns, Method::kFmdvVH);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();
  EXPECT_TRUE(outcomes[2].status.ok()) << outcomes[2].status.ToString();
  EXPECT_FALSE(outcomes[3].status.ok());

  // One batch == one version bump; abstained columns are absent.
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.size(), 3u);
  EXPECT_EQ(service.Find("junk"), nullptr);

  // Deterministic vs the sequential facade: TrainAll rules are the same
  // rules AutoValidate::Train produces, regardless of pool scheduling.
  const AutoValidate engine(index_, opts);
  for (const auto& [name, values] :
       {std::pair<std::string, const std::vector<std::string>*>{"src_ip",
                                                                &ips},
        {"day", &dates},
        {"request_id", &guids}}) {
    auto solo = engine.Train(*values, Method::kFmdvVH);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(service.Find(name)->Serialize(), solo->Serialize()) << name;
  }

  // Serving: the drifted feed alarms, the clean feed does not.
  const auto clean = service.Validate("src_ip", DomainColumn("ipv4", 200, 9));
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->flagged);
  const auto drifted =
      service.Validate("src_ip", DomainColumn("guid", 200, 10));
  ASSERT_TRUE(drifted.ok());
  EXPECT_TRUE(drifted->flagged);
}

TEST_F(ValidationServiceTrainTest, ValidateAllConsistentUnderTrainAllChurn) {
  // Whole-table validation racing TrainAll re-training: every TableReport
  // must be internally consistent (single generation: all columns present,
  // trained rules only ever from one TrainAll batch) and clean feeds must
  // never alarm. TrainAll is deterministic for a fixed feed, so any mix of
  // generations would still validate identically — the point here is that
  // the snapshot/pool machinery is race-free (the TSan CI job checks this
  // test) and reports never observe a half-installed batch.
  AutoValidateOptions opts;
  opts.min_coverage = 5;
  ValidationService service(index_, opts, /*num_train_threads=*/2);

  const auto ips = DomainColumn("ipv4", 60, 1);
  const auto dates = DomainColumn("iso_date", 60, 2);
  const std::vector<NamedColumn> feed = {{"src_ip", ips}, {"day", dates}};
  ASSERT_EQ(service.TrainAll(feed, Method::kFmdvVH).size(), 2u);
  const uint64_t v0 = service.version();

  const auto ips_clean = DomainColumn("ipv4", 120, 9);
  const auto dates_clean = DomainColumn("iso_date", 120, 8);
  const std::vector<NamedColumn> table = {{"src_ip", ips_clean},
                                          {"day", dates_clean}};

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const TableReport report = service.ValidateAll(table);
      if (report.columns_validated != 2 || report.columns_flagged != 0 ||
          report.store_version < v0) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < 10; ++i) {
    const auto outcomes = service.TrainAll(feed, Method::kFmdvVH);
    ASSERT_EQ(outcomes.size(), 2u);
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(service.version(), v0 + 10);
}

}  // namespace
}  // namespace av
