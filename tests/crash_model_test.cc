// Crash-state model checker over the persistence layer (testing/crashmc.h).
//
// For each on-disk format the full save path runs under an OpRecorder, then
// the checker enumerates EVERY crash point and every legal post-crash disk
// state (prefix-torn un-fsynced data, lost or partially-applied directory
// metadata), materializes each state, and runs the real recovery path. The
// chaos tests sample this space with SIGKILL; these tests cover it.
//
// Also pinned here: a deliberately broken save ordering (rename issued
// without a file fsync) IS caught, and the violation's trace replays into
// the exact offending directory — crash bugs found by the checker are
// deterministic reproducers.
#include "testing/crashmc.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/file_ops.h"
#include "common/temp_file.h"
#include "core/validation_service.h"
#include "corpus/corpus.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "index/pattern_index.h"
#include "index/spill.h"
#include "pattern/pattern.h"
#include "tests/test_util.h"

namespace av {
namespace {

using crashmc::CheckCrashStates;
using crashmc::CheckOptions;
using crashmc::CheckReport;
using crashmc::DiskOp;
using crashmc::OpKind;
using crashmc::OpRecorder;
using crashmc::TargetSpec;

namespace fs = std::filesystem;

using testutil::MakeTempDir;

/// CI bounded-state budget: AV_CRASHMC_BUDGET overrides the default cap.
size_t StateBudget() {
  if (const char* env = std::getenv("AV_CRASHMC_BUDGET")) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return 1u << 20;
}

/// Every format test must enumerate a real state space, hold every
/// invariant on it, and log its counts (the acceptance criterion).
void ExpectClean(const char* format, const CheckReport& report) {
  std::cout << "[crashmc] " << format << ": " << report.Summary() << "\n";
  EXPECT_FALSE(report.budget_exhausted) << format;
  EXPECT_GT(report.states_checked, 10u) << format;
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << format << ": " << violation.message << "\n"
                  << violation.trace;
  }
}

Status LoadIndexFile(const std::string& path) {
  return PatternIndex::Load(path).status();
}

Status LoadRuleSetFile(const std::string& path) {
  ValidationService service(nullptr, {}, /*num_train_threads=*/1);
  return service.Load(path);
}

// ---------------------------------------------------------------------------
// The four save paths, recorded and exhaustively checked.

TEST(CrashModelTest, IndexSaveSurvivesEveryCrashState) {
  ScopedTempDir dir = MakeTempDir();
  const std::string target = dir.File("live.avidx");

  TargetSpec spec;
  spec.path = "live.avidx";
  spec.load = LoadIndexFile;
  OpRecorder recorder(dir.path());
  {
    ScopedFileOps scoped(&recorder);
    for (int g = 0; g < 3; ++g) {
      PatternIndex index;
      index.Add("<digit>+", 0.25 * g);
      index.Add("<letter>{" + std::to_string(2 + g) + "}", 0.5);
      if (g == 2) index.Add("Mar <digit>{2}", 0.75);
      ASSERT_TRUE(index.Save(target).ok()) << "generation " << g;
      spec.commit_points.push_back(recorder.op_count());
      auto bytes = ReadFileToString(target);
      ASSERT_TRUE(bytes.ok());
      spec.generations.push_back(std::move(bytes).value());
    }
  }

  CheckOptions opts;
  opts.durable = true;
  opts.max_states = StateBudget();
  ExpectClean("AVIDX003", CheckCrashStates(recorder.log(), {spec}, opts));
}

TEST(CrashModelTest, RuleSetSaveSurvivesEveryCrashState) {
  ScopedTempDir dir = MakeTempDir();
  const std::string target = dir.File("rules.avrs");

  ValidationService service(nullptr, {}, /*num_train_threads=*/1);
  TargetSpec spec;
  spec.path = "rules.avrs";
  spec.load = LoadRuleSetFile;
  OpRecorder recorder(dir.path());
  {
    ScopedFileOps scoped(&recorder);
    for (int g = 1; g <= 3; ++g) {
      ValidationRule rule;
      rule.method = Method::kFmdvVH;
      rule.coverage = 100 + g;
      rule.train_size = 1000;
      rule.significance = 0.05;
      rule.pattern =
          *Pattern::Parse("<digit>{" + std::to_string(2 + g) + "}");
      rule.segments = {rule.pattern};
      std::string name = "c";
      name += std::to_string(g);
      service.Upsert(name, rule);
      ASSERT_TRUE(service.Save(target).ok()) << "generation " << g;
      spec.commit_points.push_back(recorder.op_count());
      auto bytes = ReadFileToString(target);
      ASSERT_TRUE(bytes.ok());
      spec.generations.push_back(std::move(bytes).value());
    }
  }

  CheckOptions opts;
  opts.durable = true;
  opts.max_states = StateBudget();
  ExpectClean("AVRULESET2", CheckCrashStates(recorder.log(), {spec}, opts));
}

TEST(CrashModelTest, SpillRunSaveNeverYieldsAcceptedTornRun) {
  ScopedTempDir dir = MakeTempDir();
  const std::string target = dir.File("run0.avspill");

  TargetSpec spec;
  spec.path = "run0.avspill";
  spec.load = LoadIndexFile;  // the build reads a run back with Load
  OpRecorder recorder(dir.path());
  {
    ScopedFileOps scoped(&recorder);
    for (int g = 0; g < 3; ++g) {
      PatternIndex chunk;
      chunk.Add("<digit>+", 0.125 * (g + 1));
      chunk.Add("<letter>{" + std::to_string(3 + g) + "}", 0.5);
      ASSERT_TRUE(WriteSpillRun(chunk, target).ok()) << "generation " << g;
      spec.commit_points.push_back(recorder.op_count());
      auto bytes = ReadFileToString(target);
      ASSERT_TRUE(bytes.ok());
      spec.generations.push_back(std::move(bytes).value());
    }
  }

  // Spill runs write with sync=false (ephemeral): completed saves carry no
  // durability promise and torn bytes MAY become visible at the target —
  // the invariant is that the checksummed loader rejects every torn state
  // and accepts every complete one.
  CheckOptions opts;
  opts.durable = false;
  opts.max_states = StateBudget();
  ExpectClean("spill run (AVIDX003, unsynced)",
              CheckCrashStates(recorder.log(), {spec}, opts));
}

TEST(CrashModelTest, CorpusCsvSaveSurvivesEveryCrashState) {
  ScopedTempDir dir = MakeTempDir();

  auto make_corpus = [](int round) {
    Corpus corpus;
    for (const char* name : {"alpha", "beta"}) {
      Table table;
      table.name = name;
      Column column;
      column.table_name = name;
      column.name = "id";
      for (int r = 0; r < 3; ++r) {
        column.values.push_back(std::to_string(1000 * round + r));
      }
      table.columns.push_back(std::move(column));
      corpus.AddTable(std::move(table));
    }
    return corpus;
  };

  TargetSpec alpha, beta;
  alpha.path = "alpha.csv";
  beta.path = "beta.csv";
  auto load_csv = [](const std::string& path) {
    return LoadLakeTable({path, "t", LakeFormat::kCsv}).status();
  };
  alpha.load = load_csv;
  beta.load = load_csv;
  OpRecorder recorder(dir.path());
  {
    ScopedFileOps scoped(&recorder);
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(
          SaveLakeToDir(make_corpus(round), dir.path(), LakeFormat::kCsv).ok());
      for (TargetSpec* spec : {&alpha, &beta}) {
        spec->commit_points.push_back(recorder.op_count());
        auto bytes = ReadFileToString(dir.File(spec->path));
        ASSERT_TRUE(bytes.ok());
        spec->generations.push_back(std::move(bytes).value());
      }
    }
  }

  CheckOptions opts;
  opts.durable = true;
  opts.max_states = StateBudget();
  // Directory-level invariant: the lake loader must skip `.avtmp` debris in
  // every crash state — a half-saved temp file never becomes a table.
  opts.dir_check = [](const std::string& state_dir) -> Status {
    auto corpus = LoadLakeFromDir(state_dir, LakeFormat::kAuto);
    AV_RETURN_NOT_OK(corpus.status());
    for (const Table& t : corpus->tables()) {
      if (t.name != "alpha" && t.name != "beta") {
        return Status::Corruption("temp debris promoted to table: " + t.name);
      }
    }
    return Status::OK();
  };
  ExpectClean("CSV", CheckCrashStates(recorder.log(), {alpha, beta}, opts));
}

// ---------------------------------------------------------------------------
// The checker must CATCH broken orderings, with a replayable trace.

TEST(CrashModelTest, InjectedMissingFsyncIsCaughtWithReplayableTrace) {
  ScopedTempDir dir = MakeTempDir();
  const std::string target = dir.File("bad.avidx");

  // The injected bug: a save that renames without ever fsyncing the file or
  // the directory (DurableWriteOptions sync=false on a format that promises
  // durability). 50 random SIGKILLs can miss the window; enumeration can't.
  PatternIndex index;
  index.Add("<digit>+", 0.5);
  TargetSpec spec;
  spec.path = "bad.avidx";
  spec.load = LoadIndexFile;
  std::string payload;
  {
    const std::string staging = dir.File("staging.avidx");
    ASSERT_TRUE(index.Save(staging).ok());  // staged outside the recording
    auto bytes = ReadFileToString(staging);
    ASSERT_TRUE(bytes.ok());
    payload = std::move(bytes).value();
  }
  OpRecorder recorder(dir.path());
  {
    ScopedFileOps scoped(&recorder);
    DurableFileWriter writer;
    ASSERT_TRUE(writer.Open(target, {.checksum = false, .sync = false}).ok());
    ASSERT_TRUE(writer.Append(payload).ok());
    ASSERT_TRUE(writer.Commit().ok());
    spec.commit_points.push_back(recorder.op_count());
    spec.generations.push_back(payload);
  }

  CheckOptions opts;
  opts.durable = true;
  opts.max_states = StateBudget();
  const CheckReport report = CheckCrashStates(recorder.log(), {spec}, opts);
  std::cout << "[crashmc] injected-bug: " << report.Summary() << "\n";
  ASSERT_FALSE(report.violations.empty())
      << "a rename without fsync must violate the durability invariants";
  bool saw_torn_or_lost = false;
  for (const auto& violation : report.violations) {
    if (violation.message.find("torn bytes visible") != std::string::npos ||
        violation.message.find("lost") != std::string::npos) {
      saw_torn_or_lost = true;
    }
  }
  EXPECT_TRUE(saw_torn_or_lost);

  // The trace is a deterministic reproducer: rematerialize the offending
  // disk state and run the real loader against it — same failure, no dice.
  const auto& first = report.violations.front();
  ASSERT_FALSE(first.trace.empty());
  auto files = crashmc::MaterializeTrace(first.trace);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ScopedTempDir replay = MakeTempDir();
  ASSERT_TRUE(crashmc::ApplyStateToDir(*files, replay.path()).ok());
  const std::string replayed = replay.File(spec.path);
  if (fs::exists(replayed)) {
    // A "torn bytes visible" state: the replayed target must hold bytes
    // that are not the committed generation, which the loader rejects.
    auto bytes = ReadFileToString(replayed);
    ASSERT_TRUE(bytes.ok());
    EXPECT_NE(*bytes, payload);
    EXPECT_FALSE(LoadIndexFile(replayed).ok());
  }
  // else: a "committed save lost" state — the missing target IS the bug.
}

TEST(CrashModelTest, SyntheticRenameBeforeFsyncIsCaught) {
  // A hand-built op log with the classic ordering bug: the rename is issued
  // BEFORE the file fsync. POSIX then allows the new directory entry to be
  // durable while the data is not — the enumerator must surface a state
  // where the target exists with torn bytes.
  PatternIndex index;
  index.Add("<digit>{4}", 0.25);
  ScopedTempDir dir = MakeTempDir();
  const std::string staged = dir.File("gen.avidx");
  ASSERT_TRUE(index.Save(staged).ok());
  auto gen = ReadFileToString(staged);
  ASSERT_TRUE(gen.ok());

  std::vector<DiskOp> log;
  log.push_back({OpKind::kCreate, "x.avidx.1.avtmp", {}, {}});
  log.push_back({OpKind::kWrite, "x.avidx.1.avtmp", {}, *gen});
  log.push_back({OpKind::kRename, "x.avidx.1.avtmp", "x.avidx", {}});
  log.push_back({OpKind::kFsyncFile, "x.avidx", {}, {}});  // too late
  log.push_back({OpKind::kFsyncDir, ".", {}, {}});

  TargetSpec spec;
  spec.path = "x.avidx";
  spec.load = LoadIndexFile;
  spec.generations = {*gen};
  spec.commit_points = {log.size()};

  CheckOptions opts;
  opts.durable = true;
  opts.max_states = StateBudget();
  const CheckReport report = CheckCrashStates(log, {spec}, opts);
  std::cout << "[crashmc] rename-before-fsync: " << report.Summary() << "\n";
  ASSERT_FALSE(report.violations.empty());
  bool saw_torn = false;
  for (const auto& violation : report.violations) {
    saw_torn |=
        violation.message.find("torn bytes visible") != std::string::npos;
  }
  EXPECT_TRUE(saw_torn) << report.violations.front().message;

  // And the fixed ordering of the same ops (fsync BEFORE rename) is clean.
  std::vector<DiskOp> fixed;
  fixed.push_back({OpKind::kCreate, "x.avidx.1.avtmp", {}, {}});
  fixed.push_back({OpKind::kWrite, "x.avidx.1.avtmp", {}, *gen});
  fixed.push_back({OpKind::kFsyncFile, "x.avidx.1.avtmp", {}, {}});
  fixed.push_back({OpKind::kRename, "x.avidx.1.avtmp", "x.avidx", {}});
  fixed.push_back({OpKind::kFsyncDir, ".", {}, {}});
  const CheckReport clean = CheckCrashStates(fixed, {spec}, opts);
  for (const auto& violation : clean.violations) {
    ADD_FAILURE() << violation.message << "\n" << violation.trace;
  }
}

// ---------------------------------------------------------------------------
// Trace plumbing and budget accounting.

TEST(CrashModelTest, TraceRoundTripsExactDiskState) {
  std::vector<DiskOp> log;
  log.push_back({OpKind::kCreate, "t.bin.0.avtmp", {}, {}});
  log.push_back({OpKind::kWrite, "t.bin.0.avtmp", {}, "hello world % \x01"});
  log.push_back({OpKind::kFsyncFile, "t.bin.0.avtmp", {}, {}});
  log.push_back({OpKind::kRename, "t.bin.0.avtmp", "t.bin", {}});
  log.push_back({OpKind::kFsyncDir, ".", {}, {}});

  const std::map<std::string, size_t> dir_applied = {{".", 2}};
  const std::map<std::string, std::pair<size_t, size_t>> file_applied = {
      {"t.bin.0.avtmp", {0, 0}}};
  // Crash after every op issued, with both directory ops applied: the
  // target exists and carries the full (fsync'd) payload.
  crashmc::DiskStateFiles expected = {{"t.bin", "hello world % \x01"}};
  const std::string trace =
      crashmc::FormatTrace(log, log.size(), dir_applied, file_applied,
                           expected);
  auto replayed = crashmc::MaterializeTrace(trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, expected);

  // A torn choice replays to the torn prefix, not the full payload.
  const std::map<std::string, std::pair<size_t, size_t>> torn_choice = {
      {"t.bin.0.avtmp", {0, 5}}};
  const std::string torn_trace = crashmc::FormatTrace(
      log, 2, {{".", 1}}, torn_choice, {});
  auto torn = crashmc::MaterializeTrace(torn_trace);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  const crashmc::DiskStateFiles torn_expected = {
      {"t.bin.0.avtmp", "hello"}};
  EXPECT_EQ(*torn, torn_expected);

  EXPECT_FALSE(crashmc::MaterializeTrace("garbage").ok());
}

TEST(CrashModelTest, BudgetBoundsEnumeration) {
  ScopedTempDir dir = MakeTempDir();
  const std::string target = dir.File("x.avidx");
  PatternIndex index;
  index.Add("<digit>+", 0.5);
  TargetSpec spec;
  spec.path = "x.avidx";
  spec.load = LoadIndexFile;
  OpRecorder recorder(dir.path());
  {
    ScopedFileOps scoped(&recorder);
    ASSERT_TRUE(index.Save(target).ok());
    spec.commit_points.push_back(recorder.op_count());
    auto bytes = ReadFileToString(target);
    ASSERT_TRUE(bytes.ok());
    spec.generations.push_back(std::move(bytes).value());
  }
  CheckOptions opts;
  opts.max_states = 3;  // far below the real state count
  const CheckReport report = CheckCrashStates(recorder.log(), {spec}, opts);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_LE(report.candidate_states, 4u);
}

}  // namespace
}  // namespace av
