// Shared helpers for the test suite: small deterministic corpora, a
// pre-built index fixture, so individual tests stay fast, and per-test
// temporary directories.
#pragma once

// AV_TSAN marks ThreadSanitizer builds. Death tests fork, and forking an
// instrumented multi-threaded test binary is unreliable under TSan — guard
// death tests with #ifndef AV_TSAN. AV_ASAN marks AddressSanitizer builds,
// whose shadow memory rules out a test under an address-space limit.
#if defined(__SANITIZE_THREAD__)
#define AV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AV_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define AV_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AV_ASAN 1
#endif
#endif

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/temp_file.h"
#include "corpus/corpus.h"
#include "index/indexer.h"
#include "index/pattern_index.h"
#include "lakegen/lakegen.h"

namespace av::testutil {

/// A fresh, uniquely named temporary directory, removed with its contents
/// at scope exit, so test processes running at once never share a file.
inline ScopedTempDir MakeTempDir() {
  auto dir = ScopedTempDir::Create();
  EXPECT_TRUE(dir.ok());
  return std::move(dir).value();
}

/// A small enterprise-profile lake (deterministic).
inline Corpus SmallLake(size_t columns = 400, uint64_t seed = 42) {
  LakeConfig cfg = EnterpriseLakeConfig(columns, seed);
  return GenerateLake(cfg);
}

/// Builds an index over a corpus with test-friendly settings.
inline PatternIndex BuildTestIndex(const Corpus& corpus) {
  IndexerConfig cfg;
  cfg.num_threads = 2;
  return BuildIndex(corpus, cfg);
}

/// A corpus with guaranteed column counts per named domain — used by tests
/// that need deterministic coverage regardless of Zipf popularity draws.
inline Corpus DomainsCorpus(
    const std::vector<std::pair<std::string, size_t>>& spec, size_t rows = 150,
    uint64_t seed = 1234) {
  const auto& domains = EnterpriseDomains();
  Corpus corpus;
  Rng rng(seed);
  Table t;
  t.name = "dom";
  size_t tables = 0;
  for (const auto& [name, count] : spec) {
    const DomainSpec* dom = nullptr;
    for (const auto& d : domains) {
      if (d.name == name) dom = &d;
    }
    if (dom == nullptr) continue;
    for (size_t i = 0; i < count; ++i) {
      Column c;
      c.table_name = t.name;
      c.name = name + "_" + std::to_string(i);
      c.domain_name = name;
      c.domain_id = 1;
      c.has_syntactic_pattern = dom->syntactic && !dom->ground_truth.empty();
      RowGen gen = dom->make_column(rng);
      for (size_t r = 0; r < rows; ++r) c.values.push_back(gen(rng));
      t.columns.push_back(std::move(c));
      if (t.columns.size() == 8) {
        corpus.AddTable(std::move(t));
        t = Table{};
        t.name = "dom_" + std::to_string(++tables);
      }
    }
  }
  if (!t.columns.empty()) corpus.AddTable(std::move(t));
  return corpus;
}

/// A corpus with `n` columns of one synthetic domain generated by `gen`,
/// for targeted FMDV behavior tests.
template <typename Gen>
Corpus UniformCorpus(size_t n, size_t rows, uint64_t seed, Gen gen) {
  Corpus corpus;
  Rng rng(seed);
  Table t;
  t.name = "uniform";
  for (size_t i = 0; i < n; ++i) {
    Column c;
    c.table_name = t.name;
    c.name = "col_" + std::to_string(i);
    for (size_t r = 0; r < rows; ++r) c.values.push_back(gen(rng));
    t.columns.push_back(std::move(c));
    if (t.columns.size() == 8) {
      corpus.AddTable(std::move(t));
      t = Table{};
      t.name = "uniform_" + std::to_string(i);
    }
  }
  if (!t.columns.empty()) corpus.AddTable(std::move(t));
  return corpus;
}

}  // namespace av::testutil
