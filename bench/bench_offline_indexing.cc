// Section 5 (implementation note): offline indexing cost. The paper's job
// processes 7M columns / 1TB in under 3 hours on a cluster, with wall-clock
// ranging from ~1h (tau=8) to ~3h (tau=13). This bench reports the same
// tau scaling at laptop scale, plus the index-size-vs-corpus-size ratio of
// Section 2.4 ("a 1TB corpus yields an index below 1GB").
//
// With --json=PATH it also emits per-tau {seconds, patterns, patterns/sec,
// index entries, index MB} for bench/run_bench.sh's BENCH_micro.json.
#include <string>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  av::bench::Flags flags = av::bench::Flags::Parse(argc, argv);
  av::bench::PrintHeader("Offline indexing: wall-clock vs tau", flags);

  const av::LakeConfig lake_cfg =
      av::EnterpriseLakeConfig(flags.columns, flags.seed);
  const av::Corpus corpus = av::GenerateLake(lake_cfg);
  const av::CorpusStats stats = corpus.ComputeStats();
  std::printf("corpus: %zu columns, %.1f MB of values\n\n", stats.num_columns,
              static_cast<double>(stats.total_bytes) / 1e6);

  std::string json = "{\n  \"columns\": " + std::to_string(stats.num_columns) +
                     ",\n  \"seed\": " + std::to_string(flags.seed) +
                     ",\n  \"runs\": [\n";
  std::printf("%-8s %12s %14s %16s %14s\n", "tau", "seconds",
              "patterns", "distinct", "index MB");
  bool first = true;
  for (size_t tau : {size_t{8}, size_t{11}, size_t{13}}) {
    av::IndexerConfig cfg;
    cfg.num_threads = flags.threads;
    cfg.gen.max_tokens = tau;
    av::IndexerReport report;
    const av::PatternIndex index = av::BuildIndex(corpus, cfg, &report);
    std::printf("%-8zu %12.2f %14llu %16zu %14.2f\n", tau, report.seconds,
                static_cast<unsigned long long>(report.patterns_emitted),
                index.size(),
                static_cast<double>(index.ApproxBytes()) / 1e6);
    const double pps = report.seconds > 0
                           ? static_cast<double>(report.patterns_emitted) /
                                 report.seconds
                           : 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"tau\": %zu, \"seconds\": %.4f, \"patterns\": %llu, "
                  "\"patterns_per_sec\": %.0f, \"distinct\": %zu, "
                  "\"index_mb\": %.2f}",
                  tau, report.seconds,
                  static_cast<unsigned long long>(report.patterns_emitted),
                  pps, index.size(),
                  static_cast<double>(index.ApproxBytes()) / 1e6);
    if (!first) json += ",\n";
    json += buf;
    first = false;
  }
  json += "\n  ],\n";

  // Out-of-core run (tau = default): chunk indexes spill to runs (their
  // AVIDX003 files, written without fsync) and the reduce loads each run
  // back to fold it. Reports the spill tax paid
  // for bounded chunk-index residency; saved bytes are identical to the
  // in-memory path (golden-tested), so only wall-clock and peak residency
  // differ.
  {
    av::IndexerConfig cfg;
    cfg.num_threads = flags.threads;
    cfg.build.memory_budget_bytes = 32ull << 20;
    av::IndexerReport report;
    const av::PatternIndex index = av::BuildIndex(corpus, cfg, &report);
    std::printf("%-8s %12.2f %14llu %16zu %14.2f  (out-of-core: %zu runs, "
                "peak %.1f MB)\n",
                "spill", report.seconds,
                static_cast<unsigned long long>(report.patterns_emitted),
                index.size(),
                static_cast<double>(index.ApproxBytes()) / 1e6,
                report.spill_runs,
                static_cast<double>(report.peak_chunk_index_bytes) / 1e6);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  \"spill\": {\"memory_budget_mb\": %.0f, \"seconds\": "
                  "%.4f, \"patterns\": %llu, \"spill_runs\": %zu, "
                  "\"spill_mb\": %.2f, \"peak_chunk_index_mb\": %.2f}\n",
                  static_cast<double>(cfg.build.memory_budget_bytes) / 1e6,
                  report.seconds,
                  static_cast<unsigned long long>(report.patterns_emitted),
                  report.spill_runs,
                  static_cast<double>(report.spill_bytes) / 1e6,
                  static_cast<double>(report.peak_chunk_index_bytes) / 1e6);
    json += buf;
  }
  json += "}\n";
  if (!flags.json.empty()) {
    std::FILE* out = std::fopen(flags.json.c_str(), "w");
    if (out != nullptr) {
      std::fputs(json.c_str(), out);
      std::fclose(out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    }
  }
  std::printf(
      "\nshape check: indexing cost grows with tau (the paper: ~1h at tau=8\n"
      "to ~3h at tau=13 on 10 nodes); the index is orders of magnitude\n"
      "smaller than the corpus.\n");
  return 0;
}
