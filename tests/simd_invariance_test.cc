// Arm-invariance goldens for the SIMD tokenizer dispatch: the tokenizer is
// under every byte of the pipeline (indexing, training, validation,
// persistence), so every dispatch arm must produce not just equal token
// streams but byte-identical DOWNSTREAM artifacts — the saved AVIDX003
// index image, the saved AVRULESET file, and field-identical validation
// reports. A kernel bug that survived the token-level property tests (e.g.
// one that only misclassifies under a specific run/seam phase) would be
// caught here by a golden-bytes mismatch between arms.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/temp_file.h"
#include "core/validation_service.h"
#include "index/indexer.h"
#include "index/pattern_index.h"
#include "lakegen/lakegen.h"
#include "pattern/simd/token_simd.h"

namespace av {
namespace {

/// Everything one arm produced, byte-exact.
struct ArmArtifacts {
  std::string arm;
  std::string index_bytes;
  std::string rules_bytes;
  uint64_t report_total = 0;
  uint64_t report_nonconforming = 0;
  double report_p_value = 0;
  bool report_flagged = false;
  std::vector<std::string> report_samples;
};

ArmArtifacts BuildArtifacts(simd::TokenizerArm arm) {
  ArmArtifacts out;
  out.arm = simd::TokenizerArmName(arm);

  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(60, 7));
  IndexerConfig icfg;
  icfg.num_threads = 2;  // also pins thread-count independence per arm
  const PatternIndex index = BuildIndex(corpus, icfg);

  auto dir = ScopedTempDir::Create();
  EXPECT_TRUE(dir.ok());
  const std::string index_path = dir->path() + "/index.avidx";
  EXPECT_TRUE(index.Save(index_path).ok());
  auto index_bytes = ReadFileToString(index_path);
  EXPECT_TRUE(index_bytes.ok());
  out.index_bytes = *std::move(index_bytes);

  AutoValidateOptions opts;
  opts.min_coverage = 3;
  opts.fpr_target = 0.1;
  ValidationService service(&index, opts, 1);

  // Train on real lake columns, then validate a shifted batch so the
  // report exercises match counting, sampling and the stat test.
  const Table& table = corpus.tables().front();
  size_t trained = 0;
  for (const Column& col : table.columns) {
    if (col.values.empty()) continue;
    if (service.Train("col" + std::to_string(trained), col.values).ok()) {
      ++trained;
    }
    if (trained == 3) break;
  }
  EXPECT_GT(trained, 0u) << "no column trained; invariance test is vacuous";

  const std::string rules_path = dir->path() + "/rules.avrs";
  EXPECT_TRUE(service.Save(rules_path).ok());
  auto rules_bytes = ReadFileToString(rules_path);
  EXPECT_TRUE(rules_bytes.ok());
  out.rules_bytes = *std::move(rules_bytes);

  std::vector<std::string> batch = table.columns.front().values;
  batch.push_back("definitely !! not ?? conforming \xc3\xa9");
  if (auto report = service.Validate("col0", batch); report.ok()) {
    out.report_total = report->total;
    out.report_nonconforming = report->nonconforming;
    out.report_p_value = report->p_value;
    out.report_flagged = report->flagged;
    out.report_samples = report->sample_violations;
  }
  return out;
}

TEST(SimdInvarianceTest, SavedArtifactsAreByteIdenticalAcrossArms) {
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  std::vector<ArmArtifacts> all;
  for (const simd::TokenizerArm arm : simd::AvailableTokenizerArms()) {
    ASSERT_TRUE(simd::SetTokenizerArm(arm));
    all.push_back(BuildArtifacts(arm));
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
  ASSERT_GE(all.size(), 1u);  // SWAR alone on a portable build
  const ArmArtifacts& want = all.front();
  EXPECT_FALSE(want.index_bytes.empty());
  EXPECT_FALSE(want.rules_bytes.empty());
  EXPECT_GT(want.report_total, 0u);
  for (const ArmArtifacts& got : all) {
    EXPECT_EQ(got.index_bytes, want.index_bytes)
        << got.arm << " vs " << want.arm << ": saved index diverged";
    EXPECT_EQ(got.rules_bytes, want.rules_bytes)
        << got.arm << " vs " << want.arm << ": saved rule set diverged";
    EXPECT_EQ(got.report_total, want.report_total) << got.arm;
    EXPECT_EQ(got.report_nonconforming, want.report_nonconforming) << got.arm;
    EXPECT_EQ(got.report_p_value, want.report_p_value) << got.arm;
    EXPECT_EQ(got.report_flagged, want.report_flagged) << got.arm;
    EXPECT_EQ(got.report_samples, want.report_samples) << got.arm;
  }
}

}  // namespace
}  // namespace av
