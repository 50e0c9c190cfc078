// Offline half: lake set-up, the timed index builds (in-memory or spilled)
// and the traced single-threaded replay of the same pipeline.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "avbench.h"
#include "common/file_ops.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "index/indexer.h"
#include "index/spill.h"
#include "pattern/generalize.h"
#include "pattern/token.h"

namespace fs = std::filesystem;

namespace avbench {

av::IndexerConfig IndexConfig(size_t threads, uint64_t budget_bytes,
                              const std::string& spill_dir) {
  av::IndexerConfig cfg;
  cfg.num_threads = threads;
  cfg.lake_format = av::LakeFormat::kCsv;
  cfg.build.memory_budget_bytes = budget_bytes;
  cfg.build.strict_spill = true;
  cfg.build.spill_dir = spill_dir;
  return cfg;
}

namespace {

/// Each build is saved this many times: a save is the shorter step, and
/// repeating it on the same index gives its median more samples per run.
constexpr size_t kSavesPerBuild = 2;

/// Stages the lake as one CSV file per table. The files are the workload's
/// scratch input, written without fsync: durable writes on the shared disk
/// made set-up time swing by 2x between runs.
bool WriteLake(const av::Corpus& lake, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;
  for (const av::Table& t : lake.tables()) {
    std::ofstream out(dir + "/" + t.name + ".csv", std::ios::binary);
    out << av::TableToCsv(t);
    if (!out.flush()) return false;
  }
  return true;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace

int CmdSetup(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const uint64_t lake_seed = args.U64("lake-seed", 42);
  const size_t columns = args.U64("columns", 2000);
  const size_t reps = args.U64("reps", 3);
  const std::string lake_dir = args.Str("lake");
  const std::string index_path = args.Str("index");  // serve set-up only
  const std::string rules_path = args.Str("rules");
  const size_t threads = args.U64("threads", 2);

  JsonOut out;
  std::vector<double> total_s, gen_s, write_s, build_s, save_s, rules_s;
  std::string first_hash;
  bool same_bytes = true;
  size_t entries = 0;
  RulesSummary rules{};
  size_t lake_columns = 0, lake_tables = 0;
  uint64_t lake_values = 0;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fs::remove_all(lake_dir);
    av::Corpus lake = MakeLake(seed, lake_seed, columns);
    gen_s.push_back(SecondsSince(t0));
    const auto t1 = Clock::now();
    if (!WriteLake(lake, lake_dir)) return Fail("writing lake " + lake_dir);
    write_s.push_back(SecondsSince(t1));
    lake_columns = lake.num_columns();
    lake_tables = lake.num_tables();
    lake_values = 0;
    for (const av::Table& t : lake.tables()) {
      for (const av::Column& c : t.columns) lake_values += c.values.size();
    }
    if (!index_path.empty()) {
      lake = av::Corpus();  // the index is built from the files alone
      const auto t2 = Clock::now();
      auto built = av::BuildIndexFromDir(lake_dir, IndexConfig(threads, 0, ""));
      if (!built.ok()) return Fail("indexing: " + built.status().ToString());
      build_s.push_back(SecondsSince(t2));
      const auto t3 = Clock::now();
      const av::Status saved = built->Save(index_path);
      if (!saved.ok()) return Fail("saving index: " + saved.ToString());
      save_s.push_back(SecondsSince(t3));
      entries = built->size();
      const std::string hash = FileHashHex(index_path);
      if (first_hash.empty()) first_hash = hash;
      same_bytes = same_bytes && hash == first_hash;
      const auto t4 = Clock::now();
      auto trained = TrainInitialRules(lake_dir, *built, threads, rules_path);
      if (!trained.ok()) return Fail("initial rules: " + trained.status().ToString());
      rules = *trained;
      rules_s.push_back(SecondsSince(t4));
    }
    total_s.push_back(SecondsSince(t0));
  }
  out.Arr("setup_s", total_s);
  out.Arr("gen_s", gen_s);
  out.Arr("write_s", write_s);
  out.Int("lake_columns", lake_columns);
  out.Int("lake_tables", lake_tables);
  out.Int("lake_values", lake_values);
  out.Int("lake_bytes", DirBytes(lake_dir));
  if (!index_path.empty()) {
    out.Arr("index_build_s", build_s);
    out.Arr("index_save_s", save_s);
    out.Arr("rules_s", rules_s);
    out.Str("index_hash", first_hash);
    out.Bool("index_same_bytes", same_bytes);
    out.Int("index_bytes", FileBytes(index_path));
    out.Int("index_entries", entries);
    out.Int("initial_columns", rules.attempted);
    out.Int("initial_rules", rules.stored);
  }
  out.Num("peak_rss_mb", PeakRssMb());
  out.Print();
  return 0;
}

int CmdOffline(const Args& args) {
  const std::string lake_dir = args.Str("lake");
  const std::string index_path = args.Str("index");
  const size_t threads = args.U64("threads", 2);
  const uint64_t budget = args.U64("budget-mb", 0) << 20;
  const double seconds = args.F64("seconds", 10);
  const size_t min_reps = args.U64("min-reps", 3);
  const bool stepped = args.U64("stepped", 0) != 0;
  const av::IndexerConfig cfg = IndexConfig(threads, budget, args.Str("spill-dir"));

  std::vector<double> build_s, save_s;
  av::IndexerReport report;
  std::string first_hash;
  bool same_bytes = true;
  size_t entries = 0;
  double peak_rss_first_mb = 0;
  const auto start = Clock::now();
  if (stepped) AckStep(0);
  while (stepped ? AwaitStep()
                 : (build_s.size() < min_reps || SecondsSince(start) < seconds)) {
    const auto t0 = Clock::now();
    auto built = av::BuildIndexFromDir(lake_dir, cfg, &report);
    if (!built.ok()) return Fail("indexing: " + built.status().ToString());
    build_s.push_back(SecondsSince(t0));
    if (budget > 0 && (!report.used_spill || report.spill_fallback)) {
      return Fail("the spill path did not run");
    }
    for (size_t s = 0; s < kSavesPerBuild; ++s) {
      const auto t1 = Clock::now();
      const av::Status st = built->Save(index_path);
      if (!st.ok()) return Fail("saving index: " + st.ToString());
      save_s.push_back(SecondsSince(t1));
      const std::string hash = FileHashHex(index_path);
      if (first_hash.empty()) first_hash = hash;
      same_bytes = same_bytes && hash == first_hash;
    }
    entries = built->size();
    if (peak_rss_first_mb == 0) peak_rss_first_mb = PeakRssMb();
    if (stepped) AckStep(build_s.size());
  }
  if (build_s.empty()) return Fail("no build ran");
  JsonOut out;
  out.Num("peak_rss_first_mb", peak_rss_first_mb);
  // The first build warms the fresh process's allocator; it and its saves
  // are reported apart from the timed repetitions.
  out.Num("warmup_build_s", build_s.front());
  out.Num("warmup_save_s", save_s.front());
  if (build_s.size() > 1) {
    build_s.erase(build_s.begin());
    save_s.erase(save_s.begin(), save_s.begin() + kSavesPerBuild);
  }
  out.Arr("index_build_s", build_s);
  out.Arr("index_save_s", save_s);
  out.Str("index_hash", first_hash);
  out.Bool("index_same_bytes", same_bytes);
  out.Int("index_bytes", FileBytes(index_path));
  out.Int("index_entries", entries);
  out.Int("columns_total", report.columns_total);
  out.Int("patterns_emitted", report.patterns_emitted);
  out.Int("peak_chunk_index_bytes", report.peak_chunk_index_bytes);
  out.Int("spill_runs", report.spill_runs);
  out.Int("spill_bytes", report.spill_bytes);
  out.Int("merge_passes", report.merge_passes);
  out.Num("peak_rss_mb", PeakRssMb());
  out.Print();
  return 0;
}

namespace {

/// Mirrors the indexer's tau pre-check: a column whose every value is wider
/// than the token limit is never profiled.
bool AllOverTokenLimit(std::span<const std::string> values, size_t max_tokens) {
  for (const std::string& v : values) {
    if (!v.empty() && av::TokenCount(v) <= max_tokens) return false;
  }
  return true;
}

}  // namespace

int CmdReplay(const Args& args) {
  const std::string lake_dir = args.Str("lake");
  const std::string work = args.Str("work");
  const uint64_t budget = args.U64("budget-mb", 32) << 20;
  const av::IndexerConfig cfg = IndexConfig(1, 0, "");
  Tracer tr;
  const int64_t root = tr.Begin("replay");

  // Stage 1: read + map, one chunk of 256 columns at a time (the indexer's
  // fixed chunking), each column profiled on its own and then enumerated.
  std::vector<av::PatternIndex> chunks;
  uint64_t values = 0, emitted = 0;
  {
    auto reader = [&] {
      ScopedSpan s(&tr, "corpus.read", root);
      return av::LakeDirColumnReader::Open(lake_dir, av::LakeFormat::kCsv);
    }();
    if (!reader.ok()) return Fail("open lake: " + reader.status().ToString());
    while (true) {
      av::Result<av::ColumnChunk> chunk = [&] {
        ScopedSpan s(&tr, "corpus.read", root);
        return reader->NextChunk(256);
      }();
      if (!chunk.ok()) return Fail("read lake: " + chunk.status().ToString());
      if (chunk->empty()) break;
      av::PatternIndex local;
      for (const av::Column* col : chunk->columns) {
        values += col->values.size();
        const std::span<const std::string> prefix(
            col->values.data(), std::min(col->values.size(), cfg.max_values_per_column));
        if (!prefix.empty() && !AllOverTokenLimit(prefix, cfg.gen.max_tokens)) {
          ScopedSpan s(&tr, "pattern.profile", root);
          const av::ColumnProfile profile = av::ColumnProfile::Build(prefix, cfg.gen);
        }
        ScopedSpan s(&tr, "index.enumerate", root);
        emitted += av::IndexColumn(*col, cfg, &local);
      }
      chunks.push_back(std::move(local));
    }
  }

  // Stage 2a: the out-of-core reduce over the same chunk indexes — one run
  // per chunk, then the bounded k-way merge. Durable writes are counted.
  CountingFileOps counting;
  av::PatternIndex spilled;
  size_t merge_passes = 0, spill_runs = 0;
  uint64_t spill_bytes = 0;
  const std::string spill_dir = work + "/replay_spill";
  fs::remove_all(spill_dir);
  fs::create_directories(spill_dir);
  {
    av::ScopedFileOps scoped(&counting);
    std::vector<std::string> runs;
    for (size_t c = 0; c < chunks.size(); ++c) {
      runs.push_back(spill_dir + "/run_" + std::to_string(c) + ".avspill");
      ScopedSpan s(&tr, "index.spill_write", root);
      auto w = av::WriteSpillRun(chunks[c], runs.back());
      if (!w.ok()) return Fail("spill write: " + w.status().ToString());
      spill_bytes += *w;
    }
    spill_runs = runs.size();
    ScopedSpan s(&tr, "index.spill_merge", root);
    const av::Status st = av::MergeSpillRunsBounded(
        runs, std::max<uint64_t>(2, budget / (64 * 1024)), spill_dir,
        [&spilled](av::SpillEntry&& e) {
          spilled.InsertAggregate(e.key, e.name, e.sum_impurity, e.columns);
        },
        &merge_passes);
    if (!st.ok()) return Fail("spill merge: " + st.ToString());
  }

  // Stage 2b: the in-memory reduce, chunk indexes folded in chunk order.
  av::PatternIndex global;
  {
    ScopedSpan s(&tr, "index.reduce", root);
    for (av::PatternIndex& c : chunks) global.MergeFrom(std::move(c));
  }
  chunks.clear();

  // Stage 3: save — the sorted walk on its own, then the full durable save.
  uint64_t walked = 0;
  {
    ScopedSpan s(&tr, "index.sorted_walk", root);
    global.ForEachSorted(
        [&walked](uint64_t, const std::string& name, const av::PatternIndex::Entry&) {
          walked += name.size();
        });
  }
  const std::string mem_path = work + "/replay_mem.idx";
  const std::string spill_path = work + "/replay_spill.idx";
  {
    av::ScopedFileOps scoped(&counting);
    ScopedSpan s(&tr, "index.save", root);
    const av::Status st = global.Save(mem_path);
    if (!st.ok()) return Fail("save: " + st.ToString());
  }
  const av::Status st2 = spilled.Save(spill_path);
  if (!st2.ok()) return Fail("save spilled: " + st2.ToString());
  tr.End(root);
  fs::remove_all(spill_dir);

  const std::string mem_hash = FileHashHex(mem_path);
  const std::string spill_hash = FileHashHex(spill_path);
  JsonOut out;
  out.Num("corpus.read_s", tr.Total("corpus.read"));
  out.Num("corpus.mb", static_cast<double>(DirBytes(lake_dir)) / (1 << 20));
  out.Int("corpus.values", values);
  out.Num("pattern.profile_s", tr.Total("pattern.profile"));
  out.Num("index.enumerate_s", tr.Total("index.enumerate"));
  out.Int("index.patterns_emitted", emitted);
  out.Num("index.reduce_s", tr.Total("index.reduce"));
  out.Num("index.spill_write_s", tr.Total("index.spill_write"));
  out.Num("index.spill_merge_s", tr.Total("index.spill_merge"));
  out.Int("index.spill_runs", spill_runs);
  out.Num("index.spill_mb", static_cast<double>(spill_bytes) / (1 << 20));
  out.Int("index.merge_passes", merge_passes);
  out.Num("index.sorted_walk_s", tr.Total("index.sorted_walk"));
  out.Num("index.save_s", tr.Total("index.save"));
  out.Int("index.entries", global.size());
  out.Int("sorted_walk_name_bytes", walked);
  out.Int("durable.write_calls", counting.write_calls);
  out.Int("durable.fsyncs", counting.fsyncs);
  out.Num("durable.mb_written", static_cast<double>(counting.bytes_written) / (1 << 20));
  out.Str("replay_mem_hash", mem_hash);
  out.Str("replay_spill_hash", spill_hash);
  out.Int("replay_bytes", FileBytes(mem_path));
  const std::string spans = args.Str("spans");
  if (!spans.empty()) tr.Write(spans);
  fs::remove(mem_path);
  fs::remove(spill_path);
  out.Print();
  return 0;
}

}  // namespace avbench
