// av_cli: command-line front end for the whole system, operating on lake
// files in any registered format (plain CSV, gzip CSV, JSONL, AVCOL1 —
// corpus/format.h) — the shape a downstream team would actually deploy in
// a pipeline. Rules live in a ValidationService rule-set file, so one
// `train` per column accumulates into a single rules file that recurring
// `validate` runs load.
//
//   av_cli index <lake_dir> <index_file> [--memory-budget=N[K|M|G]]
//                [--format=auto|csv|csv.gz|jsonl|avcol]
//                                                 build the offline index;
//                                                 files stream through the
//                                                 format registry (mixed
//                                                 formats under auto); with
//                                                 a budget chunk indexes
//                                                 spill to disk (bounded
//                                                 memory, same bytes)
//   av_cli convert <src_dir> <dst_dir> --format=csv|csv.gz|jsonl|avcol
//                [--from=auto|csv|csv.gz|jsonl|avcol]
//                                                 re-encode a lake; the
//                                                 converted lake indexes to
//                                                 byte-identical AVIDX003
//   av_cli train <index_file> <table_file> <column> <rules_file> [method]
//   av_cli validate <rules_file> <table_file> <column>  exit 2 when flagged
//   av_cli validate-table <rules_file> <table_file>     whole table; exit 2
//                                                 when any column flags
//   av_cli tag <index_file> <table_file> <column>  print the domain tag
//   av_cli demo <dir> [--format=F]                 write a demo lake
//
// <table_file> arguments are format-auto-detected (magic bytes +
// extension), so a .jsonl or .avcol table trains and validates exactly
// like its .csv twin.
//
// Remote mode (against a running avserved, AVNET001 over loopback):
//   av_cli remote-validate <host:port> <csv> <column>   exit 2 when flagged
//   av_cli remote-validate-table <host:port> <csv>      exit 2 on any flag
//   av_cli remote-stats <host:port>               print the server stats text
//   av_cli remote-shutdown <host:port>            graceful drain
//
// Example session:
//   ./build/examples/av_cli demo /tmp/lake
//   ./build/examples/av_cli index /tmp/lake /tmp/lake.idx
//   ./build/examples/av_cli train /tmp/lake.idx /tmp/lake/table_0.csv 0 /tmp/rules.avrs
//   ./build/examples/av_cli validate /tmp/rules.avrs /tmp/lake/table_0.csv 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <filesystem>

#include "common/strings.h"
#include "core/validation_service.h"
#include "corpus/column_reader.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "index/indexer.h"
#include "lakegen/lakegen.h"
#include "server/client.h"

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  av_cli demo <dir> [--format=csv|csv.gz|jsonl|avcol]\n"
               "  av_cli index <lake_dir> <index_file> "
               "[--memory-budget=N[K|M|G]]\n"
               "                [--format=auto|csv|csv.gz|jsonl|avcol]\n"
               "  av_cli convert <src_dir> <dst_dir> "
               "--format=csv|csv.gz|jsonl|avcol [--from=FMT]\n"
               "  av_cli train <index_file> <table_file> <column> <rules_file> "
               "[FMDV|FMDV-V|FMDV-H|FMDV-VH]\n"
               "  av_cli validate <rules_file> <table_file> <column>\n"
               "  av_cli validate-table <rules_file> <table_file>\n"
               "  av_cli tag <index_file> <table_file> <column>\n"
               "  av_cli remote-validate <host:port> <table_file> <column>\n"
               "  av_cli remote-validate-table <host:port> <table_file>\n"
               "  av_cli remote-stats <host:port>\n"
               "  av_cli remote-shutdown <host:port>\n");
  return 1;
}

/// Parses a --format=/--from= value or fails usage-style.
bool ParseFormatFlag(const char* value, av::LakeFormat* out) {
  if (av::ParseLakeFormat(value, out)) return true;
  std::fprintf(stderr, "error: unknown format '%s'\n", value);
  return false;
}

/// Loads a whole table file, auto-detecting its format (magic bytes +
/// extension); unknown extensions fall back to CSV, the legacy behavior.
av::Result<av::Table> LoadTable(const std::string& path) {
  auto detected = av::DetectLakeFormat(path);
  av::LakeFormat format = av::LakeFormat::kCsv;
  if (detected.ok()) {
    format = *detected;
  } else if (detected.status().code() != av::StatusCode::kNotSupported) {
    return detected.status();  // e.g. the file does not exist
  }
  return av::LoadLakeTable({path, av::LakeTableName(path), format});
}

/// Loads one column (by name or 0-based position) from a table file.
av::Result<std::vector<std::string>> LoadColumn(const std::string& path,
                                                const std::string& column) {
  auto table = LoadTable(path);
  if (!table.ok()) return table.status();
  for (size_t i = 0; i < table->columns.size(); ++i) {
    if (table->columns[i].name == column ||
        std::to_string(i) == column) {
      return table->columns[i].values;
    }
  }
  return av::Status::NotFound("no column '" + column + "' in " + path);
}

av::Method ParseMethod(const char* name) {
  if (std::strcmp(name, "FMDV") == 0) return av::Method::kFmdv;
  if (std::strcmp(name, "FMDV-V") == 0) return av::Method::kFmdvV;
  if (std::strcmp(name, "FMDV-H") == 0) return av::Method::kFmdvH;
  return av::Method::kFmdvVH;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Connects an AVNET001 client to a "host:port" endpoint string.
av::Status ConnectRemote(const std::string& endpoint, av::net::Client* client) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return av::Status::InvalidArgument("endpoint must be host:port: " +
                                       endpoint);
  }
  char* end = nullptr;
  const unsigned long port =
      std::strtoul(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port == 0 || port > 65535) {
    return av::Status::InvalidArgument("bad port in endpoint: " + endpoint);
  }
  return client->Connect(endpoint.substr(0, colon),
                         static_cast<uint16_t>(port));
}

void PrintReport(const av::ValidationReport& report) {
  std::printf("values=%llu nonconforming=%llu theta=%.4f p=%.4g -> %s\n",
              static_cast<unsigned long long>(report.total),
              static_cast<unsigned long long>(report.nonconforming),
              report.theta_test, report.p_value,
              report.flagged ? "FLAGGED" : "ok");
  for (const auto& v : report.sample_violations) {
    std::printf("  violation: \"%s\"\n", v.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];

  if (cmd == "demo" && (argc == 3 || argc == 4)) {
    av::LakeFormat format = av::LakeFormat::kCsv;
    if (argc == 4) {
      const char* flag = "--format=";
      if (std::strncmp(argv[3], flag, std::strlen(flag)) != 0 ||
          !ParseFormatFlag(argv[3] + std::strlen(flag), &format) ||
          format == av::LakeFormat::kAuto) {
        return Usage();
      }
    }
    const av::Corpus lake =
        av::GenerateLake(av::EnterpriseLakeConfig(/*num_columns=*/1500));
    const av::Status st = av::SaveLakeToDir(lake, argv[2], format);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %zu tables (%zu columns) to %s as %s\n",
                lake.num_tables(), lake.num_columns(), argv[2],
                av::LakeFormatName(format));
    return 0;
  }

  if (cmd == "index" && argc >= 4) {
    av::IndexerConfig cfg;
    // A CLI run that asked for a memory budget must not silently degrade
    // into an unbounded in-memory build: fail loudly instead.
    cfg.build.strict_spill = true;
    for (int i = 4; i < argc; ++i) {
      const char* budget_flag = "--memory-budget=";
      const char* format_flag = "--format=";
      if (std::strncmp(argv[i], budget_flag, std::strlen(budget_flag)) == 0) {
        if (!av::ParseByteSize(argv[i] + std::strlen(budget_flag),
                               &cfg.build.memory_budget_bytes)) {
          return Usage();
        }
      } else if (std::strncmp(argv[i], format_flag,
                              std::strlen(format_flag)) == 0) {
        if (!ParseFormatFlag(argv[i] + std::strlen(format_flag),
                             &cfg.lake_format)) {
          return Usage();
        }
      } else {
        return Usage();
      }
    }
    // One path for both modes: stream the lake through the format registry
    // file-by-file. A zero budget keeps chunk indexes in memory; a budget
    // spills them — the saved bytes are identical either way, and identical
    // whatever format encodes the lake.
    av::IndexerReport report;
    auto built = av::BuildIndexFromDir(argv[2], cfg, &report);
    if (!built.ok()) return Fail(built.status().ToString());
    av::PatternIndex index = std::move(built).value();
    const av::Status st = index.Save(argv[3]);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("indexed %zu columns in %.2fs -> %zu patterns -> %s\n",
                report.columns_indexed, report.seconds, index.size(),
                argv[3]);
    if (report.used_spill) {
      std::printf("out-of-core: %zu spill runs (%.1f MB), peak chunk-index "
                  "residency %.1f MB\n",
                  report.spill_runs,
                  static_cast<double>(report.spill_bytes) / 1e6,
                  static_cast<double>(report.peak_chunk_index_bytes) / 1e6);
    }
    return 0;
  }

  if (cmd == "convert" && argc >= 5) {
    av::LakeFormat to = av::LakeFormat::kAuto;
    av::LakeFormat from = av::LakeFormat::kAuto;
    for (int i = 4; i < argc; ++i) {
      const char* to_flag = "--format=";
      const char* from_flag = "--from=";
      if (std::strncmp(argv[i], to_flag, std::strlen(to_flag)) == 0) {
        if (!ParseFormatFlag(argv[i] + std::strlen(to_flag), &to)) {
          return Usage();
        }
      } else if (std::strncmp(argv[i], from_flag, std::strlen(from_flag)) ==
                 0) {
        if (!ParseFormatFlag(argv[i] + std::strlen(from_flag), &from)) {
          return Usage();
        }
      } else {
        return Usage();
      }
    }
    const av::LakeFormatHandler* out_handler = av::FindLakeFormatHandler(to);
    if (out_handler == nullptr) {
      return Fail("convert needs a concrete --format= (not auto)");
    }
    if (!out_handler->available) {
      return Fail(std::string(out_handler->name) +
                  " output is not enabled in this build (zlib missing?)");
    }
    auto files = av::ListLakeFiles(argv[2], from);
    if (!files.ok()) return Fail(files.status().ToString());
    std::error_code ec;
    std::filesystem::create_directories(argv[3], ec);
    if (ec) return Fail("cannot create directory " + std::string(argv[3]));
    // File-by-file: a lake much larger than memory converts in bounded
    // space (one table resident at a time).
    for (const av::LakeFileInfo& info : *files) {
      auto table = av::LoadLakeTable(info);
      if (!table.ok()) return Fail(table.status().ToString());
      const std::string dst = std::string(argv[3]) + "/" + info.table_name +
                              out_handler->extension;
      const av::Status st = out_handler->save(*table, dst);
      if (!st.ok()) return Fail(st.ToString());
    }
    std::printf("converted %zu tables %s -> %s (%s)\n", files->size(),
                argv[2], argv[3], out_handler->name);
    return 0;
  }

  if (cmd == "train" && (argc == 6 || argc == 7)) {
    auto index = av::PatternIndex::Load(argv[2]);
    if (!index.ok()) return Fail(index.status().ToString());
    auto values = LoadColumn(argv[3], argv[4]);
    if (!values.ok()) return Fail(values.status().ToString());

    av::AutoValidateOptions opts;
    opts.min_coverage = 5;  // CSV-dir lakes are small; scale accordingly
    av::ValidationService service(&index.value(), opts);
    // Accumulate into an existing rule set, so one rules file can monitor
    // many columns across repeated train invocations.
    if (FileExists(argv[5])) {
      const av::Status st = service.Load(argv[5]);
      if (!st.ok()) return Fail(st.ToString());
    }
    const av::Method method =
        argc == 7 ? ParseMethod(argv[6]) : av::Method::kFmdvVH;
    auto rule = service.Train(argv[4], *values, method);
    if (!rule.ok()) return Fail(rule.status().ToString());
    const av::Status st = service.Save(argv[5]);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("learned %s\nrule set (%zu rules, v%llu) written to %s\n",
                rule->Describe().c_str(), service.size(),
                static_cast<unsigned long long>(service.version()), argv[5]);
    return 0;
  }

  if (cmd == "validate" && argc == 5) {
    av::ValidationService service(nullptr, av::AutoValidateOptions{});
    const av::Status st = service.Load(argv[2]);
    if (!st.ok()) return Fail(st.ToString());
    auto values = LoadColumn(argv[3], argv[4]);
    if (!values.ok()) return Fail(values.status().ToString());

    auto report = service.Validate(argv[4], *values);
    if (!report.ok()) {
      // A single-rule file validates any column name for convenience.
      const auto snapshot = service.Snapshot();
      if (snapshot->rules.size() != 1) return Fail(report.status().ToString());
      report = av::ValidateColumn(*snapshot->rules.begin()->second.rule,
                                  *values,
                                  service.options().max_sample_violations);
    }
    std::printf("values=%llu nonconforming=%llu theta=%.4f p=%.4g -> %s\n",
                static_cast<unsigned long long>(report->total),
                static_cast<unsigned long long>(report->nonconforming),
                report->theta_test, report->p_value,
                report->flagged ? "FLAGGED" : "ok");
    for (const auto& v : report->sample_violations) {
      std::printf("  violation: \"%s\"\n", v.c_str());
    }
    return report->flagged ? 2 : 0;
  }

  if (cmd == "validate-table" && argc == 4) {
    av::ValidationService service(nullptr, av::AutoValidateOptions{});
    const av::Status st = service.Load(argv[2]);
    if (!st.ok()) return Fail(st.ToString());
    auto table = LoadTable(argv[3]);
    if (!table.ok()) return Fail(table.status().ToString());

    // One tokenization per column, every rule of the table, one rule-store
    // generation for the whole run.
    std::vector<av::NamedColumn> columns;
    columns.reserve(table->columns.size());
    for (const auto& col : table->columns) {
      columns.push_back({col.name, col.values});
    }
    const av::TableReport report = service.ValidateAll(columns);
    for (const auto& col : report.columns) {
      if (!col.status.ok()) {
        std::printf("%-24s (no rule — unmonitored)\n", col.name.c_str());
        continue;
      }
      std::printf("%-24s values=%llu nonconforming=%llu theta=%.4f p=%.4g "
                  "-> %s\n",
                  col.name.c_str(),
                  static_cast<unsigned long long>(col.report.total),
                  static_cast<unsigned long long>(col.report.nonconforming),
                  col.report.theta_test, col.report.p_value,
                  col.report.flagged ? "FLAGGED" : "ok");
      for (const auto& v : col.report.sample_violations) {
        std::printf("  violation: \"%s\"\n", v.c_str());
      }
    }
    std::printf("table: %zu/%zu monitored columns flagged, %llu rows "
                "scanned, rule store v%llu\n",
                report.columns_flagged, report.columns_validated,
                static_cast<unsigned long long>(report.rows_scanned),
                static_cast<unsigned long long>(report.store_version));
    if (report.columns_validated == 0) {
      // Nothing was actually validated (rules/table name mismatch or wrong
      // rules file): fail loudly rather than reporting a healthy table,
      // matching single-column `validate`'s NotFound behavior.
      return Fail("no stored rule matches any column of " +
                  std::string(argv[3]));
    }
    return report.any_flagged() ? 2 : 0;
  }

  if (cmd == "remote-validate" && argc == 5) {
    auto values = LoadColumn(argv[3], argv[4]);
    if (!values.ok()) return Fail(values.status().ToString());
    av::net::Client client;
    const av::Status st = ConnectRemote(argv[2], &client);
    if (!st.ok()) return Fail(st.ToString());
    auto remote = client.Validate(argv[4], *values);
    if (!remote.ok()) return Fail(remote.status().ToString());
    PrintReport(remote->report);
    std::printf("rule store v%llu @ %s\n",
                static_cast<unsigned long long>(remote->store_version),
                argv[2]);
    return remote->report.flagged ? 2 : 0;
  }

  if (cmd == "remote-validate-table" && argc == 4) {
    auto table = LoadTable(argv[3]);
    if (!table.ok()) return Fail(table.status().ToString());
    std::vector<std::pair<std::string, std::vector<std::string>>> columns;
    columns.reserve(table->columns.size());
    for (auto& col : table->columns) {
      columns.emplace_back(col.name, std::move(col.values));
    }
    av::net::Client client;
    const av::Status st = ConnectRemote(argv[2], &client);
    if (!st.ok()) return Fail(st.ToString());
    auto remote = client.ValidateTable(columns);
    if (!remote.ok()) return Fail(remote.status().ToString());
    size_t validated = 0, flagged = 0;
    for (const auto& col : remote->columns) {
      if (!col.has_rule) {
        std::printf("%-24s (no rule — unmonitored)\n", col.name.c_str());
        continue;
      }
      ++validated;
      if (col.report.flagged) ++flagged;
      std::printf("%-24s ", col.name.c_str());
      PrintReport(col.report);
    }
    std::printf("table: %zu/%zu monitored columns flagged, rule store "
                "v%llu @ %s\n",
                flagged, validated,
                static_cast<unsigned long long>(remote->store_version),
                argv[2]);
    if (validated == 0) {
      return Fail("no stored rule matches any column of " +
                  std::string(argv[3]));
    }
    return flagged > 0 ? 2 : 0;
  }

  if (cmd == "remote-stats" && argc == 3) {
    av::net::Client client;
    const av::Status st = ConnectRemote(argv[2], &client);
    if (!st.ok()) return Fail(st.ToString());
    auto stats = client.Stats();
    if (!stats.ok()) return Fail(stats.status().ToString());
    std::fputs(stats->c_str(), stdout);
    return 0;
  }

  if (cmd == "remote-shutdown" && argc == 3) {
    av::net::Client client;
    const av::Status st = ConnectRemote(argv[2], &client);
    if (!st.ok()) return Fail(st.ToString());
    const av::Status down = client.Shutdown();
    if (!down.ok()) return Fail(down.ToString());
    std::printf("server draining\n");
    return 0;
  }

  if (cmd == "tag" && argc == 5) {
    auto index = av::PatternIndex::Load(argv[2]);
    if (!index.ok()) return Fail(index.status().ToString());
    auto values = LoadColumn(argv[3], argv[4]);
    if (!values.ok()) return Fail(values.status().ToString());
    av::AutoValidateOptions opts;
    opts.min_coverage = 5;
    opts.autotag_min_coverage = 3;
    const av::AutoValidate engine(&index.value(), opts);
    auto tag = engine.AutoTag(*values);
    if (!tag.ok()) return Fail(tag.status().ToString());
    std::printf("domain tag: %s\n", tag->ToString().c_str());
    return 0;
  }

  return Usage();
}
