// Kill-mid-save chaos test: a child process churns the rule store and saves
// it in a tight loop while the parent SIGKILLs it at a random point — the
// crash model the durability contract is written against. After every kill
// the surviving file must load completely as SOME saved generation (the
// old one or the new one), never a torn or mixed state. The same is checked
// for PatternIndex::Save alternating between two known indexes.
//
// The child stays effectively single-threaded between fork and _exit
// (Upsert/Save never touch the service's thread pool, and the pool's idle
// workers hold no locks the child path needs), and the whole test is
// skipped under TSan, which does not support forking multi-threaded
// processes.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "common/durable_file.h"
#include "common/rng.h"
#include "common/temp_file.h"
#include "core/validation_service.h"
#include "index/pattern_index.h"
#include "pattern/pattern.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"

#ifndef AV_TSAN  // test_util.h defines it as 1 under ThreadSanitizer
#define AV_TSAN 0
#endif

namespace av {
namespace {

namespace fs = std::filesystem;

constexpr int kRounds = 50;         // SIGKILLs per scenario (acceptance: 50)
constexpr int kChildIterations = 400;

using testutil::MakeTempDir;

/// Deterministic replay for the stochastic rounds. Each round runs its own
/// Rng seeded from the scenario base via SplitMix64, and the seed is logged
/// (SCOPED_TRACE) so a failure prints exactly how to reproduce it. Setting
/// AV_CHAOS_SEED=<seed> replays that ONE round — same PRNG decisions, same
/// kill timing draw — instead of the whole schedule.
class ChaosRounds {
 public:
  explicit ChaosRounds(uint64_t base_seed) : state_(base_seed) {
    if (const char* env = std::getenv("AV_CHAOS_SEED")) {
      replay_seed_ = std::strtoull(env, nullptr, 10);
    }
  }

  /// True when replaying a single logged round; aggregate cross-round
  /// assertions (kill-timing coverage counters) do not apply then.
  bool replaying() const { return replay_seed_.has_value(); }
  int NumRounds(int normal_rounds) const {
    return replaying() ? 1 : normal_rounds;
  }
  uint64_t NextSeed() {
    return replaying() ? *replay_seed_ : SplitMix64(state_);
  }

 private:
  uint64_t state_;
  std::optional<uint64_t> replay_seed_;
};

/// Deterministic rule for generation `v` (content is a function of v, so a
/// loaded file can be checked for generation consistency).
ValidationRule GenerationRule(uint64_t v) {
  ValidationRule rule;
  rule.method = Method::kFmdvVH;
  rule.fpr_estimate = 0.001 * static_cast<double>(v % 50);
  rule.coverage = 100 + v;
  rule.train_size = 1000;
  rule.train_nonconforming = v % 7;
  rule.significance = 0.05;
  rule.pattern = *Pattern::Parse("<digit>{" + std::to_string(2 + v % 8) + "}");
  rule.segments = {rule.pattern};
  return rule;
}

TEST(ChaosTest, KilledRuleSetSaverAlwaysLeavesCompleteGeneration) {
#if AV_TSAN
  GTEST_SKIP() << "fork-based chaos test is not TSan-compatible";
#else
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("rules.avrs");
  ChaosRounds schedule(20260808);
  int rounds_with_file = 0;

  for (int round = 0; round < schedule.NumRounds(kRounds); ++round) {
    const uint64_t seed = schedule.NextSeed();
    SCOPED_TRACE("replay with AV_CHAOS_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: one Upsert + one Save per generation. Invariant of every
      // committed file: version v <=> rules exactly {c1..cv}.
      ValidationService service(nullptr, {}, /*num_train_threads=*/1);
      for (int v = 1; v <= kChildIterations; ++v) {
        // Two-step concat sidesteps a GCC-12 -Wrestrict false positive on
        // operator+(const char*, std::string&&) (same issue as lakegen).
        std::string name = "c";
        name += std::to_string(v);
        service.Upsert(name, GenerationRule(v));
        if (!service.Save(path).ok()) _exit(2);
      }
      _exit(0);
    }

    // Parent: let the child churn for a random slice of its save loop,
    // then kill it mid-flight.
    usleep(rng.Below(20000));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);

    if (!fs::exists(path)) continue;  // killed before the first commit
    ++rounds_with_file;

    // The survivor must be a COMPLETE generation: loads cleanly, and its
    // content is exactly the rule set of its version.
    ValidationService survivor(nullptr, {}, /*num_train_threads=*/1);
    const Status loaded = survivor.Load(path);
    ASSERT_TRUE(loaded.ok()) << "round " << round << ": " << loaded.ToString();
    const uint64_t v = survivor.version();
    ASSERT_GE(v, 1u) << "round " << round;
    ASSERT_EQ(survivor.size(), v) << "round " << round;
    for (uint64_t i = 1; i <= v; ++i) {
      std::string name = "c";
      name += std::to_string(i);
      const auto rule = survivor.Find(name);
      ASSERT_NE(rule, nullptr) << "round " << round << " rule " << i;
      EXPECT_EQ(rule->coverage, 100 + i);
    }
  }
  // The kills must actually have exercised the save path (not all landed
  // before the first commit). A single-round replay can't meet the
  // aggregate bar by construction.
  if (!schedule.replaying()) {
    EXPECT_GT(rounds_with_file, kRounds / 4);
  }
#endif
}

TEST(ChaosTest, KilledIndexSaverLeavesOldOrNewIndex) {
#if AV_TSAN
  GTEST_SKIP() << "fork-based chaos test is not TSan-compatible";
#else
  ScopedTempDir dir = MakeTempDir();

  // Two distinguishable generations, their exact on-disk bytes recorded.
  PatternIndex gen_a;
  gen_a.Add("<digit>+", 0.25);
  gen_a.Add("<letter>+", 0.5);
  PatternIndex gen_b;
  gen_b.Add("<digit>+", 0.125);
  gen_b.Add("<digit>{4}-<digit>{2}", 0.0);
  gen_b.Add("Mar <digit>{2}", 0.75);
  const std::string path_a = dir.File("a.avidx");
  const std::string path_b = dir.File("b.avidx");
  ASSERT_TRUE(gen_a.Save(path_a).ok());
  ASSERT_TRUE(gen_b.Save(path_b).ok());
  auto bytes_a = ReadFileToString(path_a);
  auto bytes_b = ReadFileToString(path_b);
  ASSERT_TRUE(bytes_a.ok());
  ASSERT_TRUE(bytes_b.ok());

  const std::string target = dir.File("live.avidx");
  ChaosRounds schedule(20260809);
  int rounds_with_file = 0;

  for (int round = 0; round < schedule.NumRounds(kRounds); ++round) {
    const uint64_t seed = schedule.NextSeed();
    SCOPED_TRACE("replay with AV_CHAOS_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      PatternIndex a;
      a.Add("<digit>+", 0.25);
      a.Add("<letter>+", 0.5);
      PatternIndex b;
      b.Add("<digit>+", 0.125);
      b.Add("<digit>{4}-<digit>{2}", 0.0);
      b.Add("Mar <digit>{2}", 0.75);
      for (int i = 0; i < kChildIterations; ++i) {
        const Status st = (i % 2 == 0 ? a : b).Save(target);
        if (!st.ok()) _exit(2);
      }
      _exit(0);
    }

    usleep(rng.Below(20000));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);

    if (!fs::exists(target)) continue;
    ++rounds_with_file;
    // Old-or-new, never torn: the file is byte-identical to one of the two
    // generations (and therefore trailer-verified and loadable).
    auto bytes = ReadFileToString(target);
    ASSERT_TRUE(bytes.ok()) << "round " << round;
    EXPECT_TRUE(*bytes == *bytes_a || *bytes == *bytes_b)
        << "round " << round << ": torn index file (" << bytes->size()
        << " bytes)";
    ASSERT_TRUE(PatternIndex::Load(target).ok()) << "round " << round;
  }
  if (!schedule.replaying()) {
    EXPECT_GT(rounds_with_file, kRounds / 4);
  }
#endif
}

// ---------------------------------------------------------------------------
// Service-level chaos: SIGKILL a serving child mid-churn, restart it from the
// surviving rules file, and verify a reconnecting client NEVER observes a
// mixed rule-store generation — every VALIDATE_TABLE reply must judge all
// columns by one generation, across kills and reloads.

constexpr int kServeRounds = 12;
const char* const kServeColumns[] = {"a", "b", "c"};

/// Generation A rules are `<digit>{3}`, generation B `<digit>{6}`; the probe
/// value "123" conforms to A (0 nonconforming) and violates B (1), so a
/// mixed install is visible as disagreeing counts inside one reply.
ValidationRule WidthRule(size_t width) {
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<digit>{" + std::to_string(width) + "}");
  rule.segments = {rule.pattern};
  rule.train_size = 1000;
  rule.train_nonconforming = 1;
  return rule;
}

TEST(ChaosTest, KilledServerRestartsWithoutMixedGenerations) {
#if AV_TSAN
  GTEST_SKIP() << "fork-based chaos test is not TSan-compatible";
#else
  ScopedTempDir dir = MakeTempDir();
  const std::string rules = dir.File("rules.avrs");
  const std::string port_file = dir.File("port");
  const std::string port_tmp = dir.File("port.tmp");
  ChaosRounds schedule(20260810);
  int total_probes = 0;

  for (int round = 0; round < schedule.NumRounds(kServeRounds); ++round) {
    const uint64_t seed = schedule.NextSeed();
    SCOPED_TRACE("replay with AV_CHAOS_SEED=" + std::to_string(seed));
    Rng rng(seed);
    fs::remove(port_file);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: reload the survivor (must ALWAYS load — crash-safe saves),
      // serve it, and churn whole generations A/B under live traffic.
      ValidationService service(nullptr, {}, /*num_train_threads=*/1);
      if (fs::exists(rules) && !service.Load(rules).ok()) _exit(3);
      net::ServerConfig cfg;
      cfg.num_workers = 2;
      cfg.rules_path = rules;
      net::Server server(&service, cfg);
      if (!server.Start().ok()) _exit(4);
      const auto install = [&](uint64_t g) {
        std::vector<ValidationService::RuleUpdate> batch;
        for (const char* name : kServeColumns) {
          batch.push_back({name, WidthRule(g % 2 == 1 ? 3 : 6), RuleMeta{}});
        }
        service.UpsertBatch(std::move(batch));
        if (!service.Save(rules).ok()) _exit(2);
      };
      // One generation is durable before the port is published, so a kill
      // at any later point leaves a rules file behind (round 0 included).
      install(1);
      {
        std::ofstream out(port_tmp);
        out << server.port();
      }
      if (std::rename(port_tmp.c_str(), port_file.c_str()) != 0) _exit(5);
      for (uint64_t g = 2;; ++g) install(g);
    }

    // Parent: wait for the child to publish its port, connect, probe.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    uint16_t port = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      if (fs::exists(port_file)) {
        auto text = ReadFileToString(port_file);
        if (text.ok() && !text->empty()) {
          port = static_cast<uint16_t>(std::stoul(*text));
          break;
        }
      }
      usleep(1000);
    }
    ASSERT_GT(port, 0) << "round " << round << ": child never published";

    net::Client client;
    while (std::chrono::steady_clock::now() < deadline) {
      if (client.Connect("127.0.0.1", port).ok()) break;
      usleep(1000);
    }
    ASSERT_TRUE(client.connected()) << "round " << round;

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        probe = {{"a", {"123"}}, {"b", {"123"}}, {"c", {"123"}}};
    for (int i = 0; i < 25; ++i) {
      auto table = client.ValidateTable(probe);
      ASSERT_TRUE(table.ok()) << "round " << round << ": "
                              << table.status().ToString();
      ASSERT_EQ(table->columns.size(), 3u);
      // One generation per reply: every column agrees with column 0.
      for (const auto& col : table->columns) {
        EXPECT_EQ(col.has_rule, table->columns[0].has_rule)
            << "round " << round << " col " << col.name << " @v"
            << table->store_version;
        EXPECT_EQ(col.report.nonconforming,
                  table->columns[0].report.nonconforming)
            << "round " << round << " col " << col.name << " @v"
            << table->store_version;
      }
      ++total_probes;
    }
    client.Close();

    usleep(rng.Below(10000));  // let the churn run on, then crash it
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "round " << round << ": child exited on its own with status "
        << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);

    // The survivor the NEXT child will reload must itself be one complete
    // generation: all columns the same width, never a mix of A and B.
    ASSERT_TRUE(fs::exists(rules)) << "round " << round;
    ValidationService survivor(nullptr, {}, /*num_train_threads=*/1);
    ASSERT_TRUE(survivor.Load(rules).ok()) << "round " << round;
    const auto first = survivor.Find("a");
    ASSERT_NE(first, nullptr) << "round " << round;
    for (const char* name : kServeColumns) {
      const auto rule = survivor.Find(name);
      ASSERT_NE(rule, nullptr) << "round " << round << " col " << name;
      EXPECT_EQ(rule->pattern.ToString(), first->pattern.ToString())
          << "round " << round << ": mixed generation on disk";
    }
  }
  if (!schedule.replaying()) {
    EXPECT_GE(total_probes, kServeRounds * 25);
  }
#endif
}

}  // namespace
}  // namespace av
