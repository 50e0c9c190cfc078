// lake_profiler: Section 5.3's "pattern analysis" as a standalone tool —
// index a data lake (files in a directory, any registered format, or a
// generated lake), then report the common data domains (head patterns),
// the index distributions of Figure 13, and save the index artifact for
// reuse.
//
// Usage:
//   ./build/examples/lake_profiler [lake_dir] [index_out]
//       [--memory-budget=N] [--format=auto|csv|csv.gz|jsonl|avcol]
// With no positional arguments, profiles a generated enterprise lake and
// writes /tmp/autovalidate.index. Lake files go through the format
// registry (corpus/format.h): mixed-format directories profile fine under
// the default --format=auto. With --memory-budget=N (bytes; K/M/G
// suffixes accepted) the index is built out-of-core: the lake is streamed
// file-by-file and chunk indexes spill to disk, so lakes larger than
// memory profile fine — the saved index bytes are identical.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "corpus/format.h"
#include "eval/reports.h"
#include "index/analysis.h"
#include "index/indexer.h"
#include "lakegen/lakegen.h"

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  av::IndexerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* budget_flag = "--memory-budget=";
    const char* format_flag = "--format=";
    if (std::strncmp(argv[i], budget_flag, std::strlen(budget_flag)) == 0) {
      if (!av::ParseByteSize(argv[i] + std::strlen(budget_flag),
                             &cfg.build.memory_budget_bytes)) {
        std::printf("bad --memory-budget value: %s\n", argv[i]);
        return 1;
      }
    } else if (std::strncmp(argv[i], format_flag, std::strlen(format_flag)) ==
               0) {
      if (!av::ParseLakeFormat(argv[i] + std::strlen(format_flag),
                               &cfg.lake_format)) {
        std::printf("bad --format value: %s\n", argv[i]);
        return 1;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }

  av::Corpus lake;
  av::IndexerReport report;
  av::PatternIndex index;
  if (!positional.empty() && cfg.build.memory_budget_bytes > 0) {
    // True out-of-core: never materialize the lake.
    auto built = av::BuildIndexFromDir(positional[0], cfg, &report);
    if (!built.ok()) {
      std::printf("out-of-core build failed: %s\n",
                  built.status().ToString().c_str());
      return 1;
    }
    index = std::move(built).value();
    std::printf("streamed %zu columns from %s (budget %.0f MB)\n",
                report.columns_total, positional[0].c_str(),
                static_cast<double>(cfg.build.memory_budget_bytes) / 1e6);
  } else {
    if (!positional.empty()) {
      auto loaded = av::LoadLakeFromDir(positional[0], cfg.lake_format);
      if (!loaded.ok()) {
        std::printf("cannot load %s: %s\n", positional[0].c_str(),
                    loaded.status().ToString().c_str());
        return 1;
      }
      lake = std::move(loaded).value();
      std::printf("loaded %zu tables (%zu columns) from %s\n",
                  lake.num_tables(), lake.num_columns(), positional[0].c_str());
    } else {
      lake = av::GenerateLake(av::EnterpriseLakeConfig(/*num_columns=*/3000));
      std::printf("generated enterprise lake: %zu columns\n",
                  lake.num_columns());
    }
    index = av::BuildIndex(lake, cfg, &report);
  }
  std::printf("indexed %zu columns in %.2fs -> %zu patterns (%.1f MB)\n",
              report.columns_indexed, report.seconds, index.size(),
              static_cast<double>(index.ApproxBytes()) / 1e6);
  if (report.used_spill) {
    std::printf("out-of-core: %zu spill runs (%.1f MB), peak chunk-index "
                "residency %.1f MB\n",
                report.spill_runs,
                static_cast<double>(report.spill_bytes) / 1e6,
                static_cast<double>(report.peak_chunk_index_bytes) / 1e6);
  }
  std::printf("\n");

  std::printf("== common data domains of this lake (Figure 3 style) ==\n");
  std::printf("%-52s %10s %8s\n", "pattern", "columns", "FPR");
  for (const auto& hp : av::HeadPatterns(index, 20, 0.02)) {
    std::printf("%-52s %10llu %8.4f\n", hp.pattern.c_str(),
                static_cast<unsigned long long>(hp.coverage), hp.fpr);
  }

  std::printf("\n== index distributions (Figure 13) ==\n");
  av::PrintIndexDistributions(av::AnalyzeIndex(index));

  const char* out = argc > 2 ? argv[2] : "/tmp/autovalidate.index";
  const av::Status st = index.Save(out);
  if (!st.ok()) {
    std::printf("failed to save index: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nindex saved to %s (reusable via PatternIndex::Load)\n", out);
  return 0;
}
