// Cross-format persistence robustness: crash-shaped damage (truncation at
// every offset) must always be rejected with kCorruption/kIOError — never a
// crash, never a half-load; the previous untrailed index and rule-set
// formats (AVIDX002, AVRULESET1) stay readable, while an untrailed
// AVSPILL01 run (spill runs never outlive their build) is rejected; and a
// FAILED save must leave the previously saved file untouched (the
// regression behind the old ValidationService::Save, which opened the
// target with std::ios::trunc and destroyed the old rule set before
// writing a byte of the new one).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/temp_file.h"
#include "core/validation_service.h"
#include "corpus/avcol.h"
#include "corpus/corpus.h"
#include "corpus/format.h"
#include "index/pattern_index.h"
#include "index/spill.h"
#include "pattern/pattern.h"
#include "tests/test_util.h"

namespace av {
namespace {

namespace fs = std::filesystem;

using testutil::MakeTempDir;

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *std::move(bytes) : std::string();
}

ValidationRule MakeRule(const std::string& pattern, double fpr) {
  ValidationRule rule;
  rule.method = Method::kFmdvVH;
  rule.fpr_estimate = fpr;
  rule.coverage = 1234;
  rule.train_size = 1000;
  rule.train_nonconforming = 3;
  rule.significance = 0.05;
  rule.pattern = *Pattern::Parse(pattern);
  rule.segments = {rule.pattern};
  return rule;
}

/// A small saved AVIDX003 file image.
std::string GoldenIndexBytes() {
  PatternIndex idx;
  idx.Add("<digit>+:<digit>{2}", 0.0);
  idx.Add("<digit>+:<digit>{2}", 0.25);
  idx.Add("Mar <digit>{2} <digit>{4}", 0.5);
  idx.Add("<letter>+", 1.0 / 3.0);
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("idx.avidx");
  EXPECT_TRUE(idx.Save(path).ok());
  return Slurp(path);
}

/// A small saved AVRULESET2 file image.
std::string GoldenRuleSetBytes() {
  ValidationService service(nullptr, {});
  service.Upsert("order_date", MakeRule("Mar <digit>{2} <digit>{4}", 0.01));
  service.Upsert("ticket_id", MakeRule("<digit>+:<digit>{2}", 0.002));
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("rules.avrs");
  EXPECT_TRUE(service.Save(path).ok());
  return Slurp(path);
}

/// A small spill run image (an AVIDX003 file, written without fsync).
std::string GoldenSpillBytes() {
  PatternIndex chunk;
  chunk.Add("<digit>+", 0.25);
  chunk.Add("<letter>+", 0.5);
  chunk.Add("Mar <digit>{2}", 0.125);
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("run.avspill");
  EXPECT_TRUE(WriteSpillRun(chunk, path).ok());
  return Slurp(path);
}

/// Reads a spill run image back as the out-of-core build's reduce does.
Status LoadSpill(std::string_view data) {
  return PatternIndex::LoadFromBuffer(data).status();
}

/// Asserts that loading every proper prefix of `bytes` through `load` fails
/// with kCorruption or kIOError — the old-or-new guarantee's other half: a
/// file that IS somehow torn (device loss, manual copy) never half-loads.
template <typename LoadFn>
void ExpectEveryTruncationRejected(const std::string& bytes,
                                   const LoadFn& load) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const Status st = load(bytes.substr(0, cut));
    EXPECT_FALSE(st.ok()) << "cut " << cut << " of " << bytes.size();
    EXPECT_TRUE(st.code() == StatusCode::kCorruption ||
                st.code() == StatusCode::kIOError)
        << "cut " << cut << ": " << st.ToString();
  }
}

// --------------------------------------------------- truncation property

TEST(PersistenceTest, IndexLoadRejectsTruncationAtEveryOffset) {
  ExpectEveryTruncationRejected(GoldenIndexBytes(), [](std::string data) {
    return PatternIndex::LoadFromBuffer(data).status();
  });
}

TEST(PersistenceTest, RuleSetLoadRejectsTruncationAtEveryOffset) {
  ExpectEveryTruncationRejected(GoldenRuleSetBytes(), [](std::string data) {
    return ValidationService::ParseRuleSetBuffer(data).status();
  });
}

TEST(PersistenceTest, SpillRunLoadRejectsTruncationAtEveryOffset) {
  ExpectEveryTruncationRejected(GoldenSpillBytes(), LoadSpill);
}

// --------------------------------------------------------- read-compat

TEST(PersistenceTest, IndexReadsPreviousUntrailedFormat) {
  const std::string v3 = GoldenIndexBytes();
  // The previous AVIDX002 format is exactly today's payload with the old
  // version byte and no trailer.
  auto payload_len = VerifyTrailer(v3);
  ASSERT_TRUE(payload_len.ok());
  std::string v2 = v3.substr(0, *payload_len);
  v2[7] = '2';
  auto loaded = PatternIndex::LoadFromBuffer(v2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Round-trip proof of equality: re-saving the loaded index reproduces
  // the modern file byte-for-byte.
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("resaved.avidx");
  ASSERT_TRUE(loaded->Save(path).ok());
  EXPECT_EQ(Slurp(path), v3);

  // A modern v3 magic WITHOUT its trailer must be rejected: the leading
  // magic decides whether a trailer is required.
  std::string untrailed_v3 = v3.substr(0, *payload_len);
  auto rejected = PatternIndex::LoadFromBuffer(untrailed_v3);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

TEST(PersistenceTest, RuleSetReadsPreviousUntrailedFormat) {
  const std::string v2 = GoldenRuleSetBytes();
  auto payload_len = VerifyTrailer(v2);
  ASSERT_TRUE(payload_len.ok());
  std::string v1 = v2.substr(0, *payload_len);
  v1.replace(0, 10, "AVRULESET1");
  auto parsed = ValidationService::ParseRuleSetBuffer(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rules.size(), 2u);
  EXPECT_NE(parsed->rules.Find("order_date"), nullptr);
  EXPECT_NE(parsed->rules.Find("ticket_id"), nullptr);

  // Modern magic without its trailer: rejected.
  auto rejected =
      ValidationService::ParseRuleSetBuffer(v2.substr(0, *payload_len));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

TEST(PersistenceTest, SpillRejectsPreviousUntrailedFormat) {
  const std::string run = GoldenSpillBytes();
  auto payload_len = VerifyTrailer(run);
  ASSERT_TRUE(payload_len.ok());
  // AVSPILL01 layout: 9-byte magic, u64 count (header), entries — no
  // trailer. A run never outlives the build that wrote it, so no reader
  // meets one.
  const std::string payload = run.substr(0, *payload_len);
  EXPECT_EQ(LoadSpill("AVSPILL01" + payload.substr(8)).code(),
            StatusCode::kCorruption);

  // Modern magic without its trailer: rejected.
  EXPECT_EQ(LoadSpill(payload).code(), StatusCode::kCorruption);
}

// ------------------------------------------- failed save keeps old file

TEST(PersistenceTest, FailedRuleSetSaveKeepsPreviousFile) {
  // Regression: the pre-durable Save opened the target with std::ios::trunc,
  // so ANY later failure (or a crash) had already destroyed the previous
  // rule set. The durable writer must leave it byte-identical instead.
  // Failure injection: a ~250-char basename is a legal file name, but the
  // writer's temp suffix pushes past NAME_MAX (root-proof, unlike chmod).
  ScopedTempDir dir = MakeTempDir();
  const std::string long_path = dir.File(std::string(250, 'r'));

  ValidationService service(nullptr, {});
  service.Upsert("order_date", MakeRule("Mar <digit>{2} <digit>{4}", 0.01));
  const std::string staging = dir.File("staging.avrs");
  ASSERT_TRUE(service.Save(staging).ok());
  fs::rename(staging, long_path);  // the "previous generation" on disk
  const std::string before = Slurp(long_path);

  service.Upsert("ticket_id", MakeRule("<digit>+:<digit>{2}", 0.002));
  const Status st = service.Save(long_path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(Slurp(long_path), before);  // untouched, byte-for-byte

  // ...and still perfectly loadable.
  ValidationService reloaded(nullptr, {});
  ASSERT_TRUE(reloaded.Load(long_path).ok());
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_NE(reloaded.Find("order_date"), nullptr);
}

TEST(PersistenceTest, FailedIndexSaveKeepsPreviousFile) {
  ScopedTempDir dir = MakeTempDir();
  const std::string long_path = dir.File(std::string(250, 'i'));

  PatternIndex old_gen;
  old_gen.Add("<digit>+", 0.5);
  const std::string staging = dir.File("staging.avidx");
  ASSERT_TRUE(old_gen.Save(staging).ok());
  fs::rename(staging, long_path);
  const std::string before = Slurp(long_path);

  PatternIndex new_gen;
  new_gen.Add("<digit>+", 0.5);
  new_gen.Add("<letter>+", 0.25);
  const Status st = new_gen.Save(long_path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(Slurp(long_path), before);
  auto loaded = PatternIndex::Load(long_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

// ------------------------------------------------------------ CSV writer

TEST(PersistenceTest, CsvLakeSaveReportsWriteFailures) {
  // The old writer streamed through an unchecked ofstream: a failed write
  // (full disk, bad name) produced a silently truncated or missing table.
  // Now the durable writer surfaces it as a Status and leaves no partial
  // CSV behind.
  Corpus corpus;
  Table t;
  t.name = std::string(250, 'c');  // temp suffix exceeds NAME_MAX
  Column col;
  col.name = "v";
  col.values = {"1", "2"};
  t.columns.push_back(std::move(col));
  corpus.AddTable(std::move(t));

  ScopedTempDir dir = MakeTempDir();
  const Status st = SaveLakeToDir(corpus, dir.path(), LakeFormat::kCsv);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path())) {
    ++files;
  }
  EXPECT_EQ(files, 0u);  // no torn table, no temp debris
}

TEST(PersistenceTest, LoadOfDirectoryIsIOError) {
  // `avserved --index=<dir>` or `--rules=<dir>` must print an error: a
  // directory opens like a file, and its stream size (2^63 - 1) once went
  // to an allocation that aborted the process.
  ScopedTempDir dir = MakeTempDir();
  auto index = PatternIndex::Load(dir.path());
  EXPECT_EQ(index.status().code(), StatusCode::kIOError)
      << index.status().ToString();
  ValidationService service(nullptr, {});
  const Status rules = service.Load(dir.path());
  EXPECT_EQ(rules.code(), StatusCode::kIOError) << rules.ToString();
  auto table = ReadTableAvcol("t", dir.path());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
}

TEST(PersistenceTest, CsvLakeSaveStillRoundTrips) {
  const std::vector<std::string> values = {"a1", "b2"};
  Corpus corpus;
  Table t;
  t.name = "orders";
  Column col;
  col.name = "id";
  col.values = values;
  t.columns.push_back(std::move(col));
  corpus.AddTable(std::move(t));
  ScopedTempDir dir = MakeTempDir();
  ASSERT_TRUE(SaveLakeToDir(corpus, dir.path(), LakeFormat::kCsv).ok());
  auto reloaded = LoadLakeFromDir(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->num_tables(), 1u);
  EXPECT_EQ(reloaded->tables()[0].columns[0].values, values);
}

}  // namespace
}  // namespace av
