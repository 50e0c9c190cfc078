#include "corpus/corpus.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "corpus/inverted_index.h"
#include "pattern/simd/token_simd.h"
#include "tests/test_util.h"

namespace av {
namespace {

Table SmallTable() {
  Table t;
  t.name = "orders";
  Column a;
  a.table_name = "orders";
  a.name = "id";
  a.values = {"1", "2", "3"};
  Column b;
  b.table_name = "orders";
  b.name = "status";
  b.values = {"new", "shipped", "new"};
  t.columns = {a, b};
  return t;
}

TEST(ColumnTest, DistinctCount) {
  Column c;
  c.values = {"a", "b", "a", "c", "a"};
  EXPECT_EQ(c.DistinctCount(), 3u);
  EXPECT_EQ(c.size(), 5u);
}

TEST(CorpusTest, StatsAggregation) {
  Corpus corpus;
  corpus.AddTable(SmallTable());
  const CorpusStats s = corpus.ComputeStats();
  EXPECT_EQ(s.num_tables, 1u);
  EXPECT_EQ(s.num_columns, 2u);
  EXPECT_DOUBLE_EQ(s.avg_values_per_column, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_distinct_per_column, 2.5);
  EXPECT_EQ(corpus.AllColumns().size(), 2u);
  EXPECT_EQ(corpus.num_columns(), 2u);
}

TEST(CsvTest, ParseSimple) {
  auto rows = ParseCsv("a,b\n1,2\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, QuotedFieldsWithSeparatorsAndNewlines) {
  auto rows = ParseCsv("\"a,b\",\"c\"\"d\",\"e\nf\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "c\"d");
  EXPECT_EQ((*rows)[0][2], "e\nf");
}

TEST(CsvTest, CrLfTolerated) {
  auto rows = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1][1], "2");
}

TEST(CsvTest, MissingTrailingNewline) {
  auto rows = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(CsvTest, UnterminatedQuoteIsCorruption) {
  auto rows = ParseCsv("\"abc");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kCorruption);
}

TEST(CsvTest, RoundTrip) {
  const std::vector<std::vector<std::string>> rows = {
      {"h1", "h,2"}, {"va\"l", "line\nbreak"}, {"", "plain"}};
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, TableRoundTrip) {
  const Table t = SmallTable();
  const std::string csv = TableToCsv(t);
  StringByteSource src(csv);
  auto back = TableFromCsvSource(t.name, src);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->columns.size(), 2u);
  EXPECT_EQ(back->columns[0].name, "id");
  EXPECT_EQ(back->columns[1].values, t.columns[1].values);
}

TEST(CsvTest, CorpusDirRoundTrip) {
  Corpus corpus;
  corpus.AddTable(SmallTable());
  const ScopedTempDir dir = testutil::MakeTempDir();
  ASSERT_TRUE(SaveLakeToDir(corpus, dir.path(), LakeFormat::kCsv).ok());
  auto loaded = LoadLakeFromDir(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_tables(), 1u);
  EXPECT_EQ(loaded->tables()[0].columns[1].values,
            SmallTable().columns[1].values);
}

TEST(CsvTest, LoadMissingDirFails) {
  auto loaded = LoadLakeFromDir("/nonexistent/av/dir", LakeFormat::kCsv);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// The incremental parser's Feed bulk-scans clean spans with the tokenizer's
// dispatch-selected find_any4 kernel; rows, the Finish status and the
// residency high-water mark must be byte-identical on every arm and for
// every way the document is sliced across Feed calls (structural bytes
// landing on slice boundaries are the fragile case).
TEST(CsvTest, IncrementalParseIsArmAndSliceInvariant) {
  Rng rng(20260808);
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  for (int iter = 0; iter < 60; ++iter) {
    // Random document: quoted fields with escapes/newlines, CRLF rows,
    // empty fields, an occasional BOM, no final newline sometimes.
    std::string doc;
    if (iter % 5 == 0) doc += "\xEF\xBB\xBF";
    const size_t rows = 1 + rng.Below(6);
    for (size_t r = 0; r < rows; ++r) {
      const size_t fields = 1 + rng.Below(4);
      for (size_t f = 0; f < fields; ++f) {
        if (f > 0) doc.push_back(',');
        switch (rng.Below(4)) {
          case 0:
            break;  // empty field
          case 1:
            doc += "v" + std::to_string(rng.Below(1000));
            break;
          case 2:
            doc += "\"quo\"\"ted,\n" + std::to_string(rng.Below(10)) + "\"";
            break;
          default:
            for (size_t i = rng.Below(40); i > 0; --i) {
              doc.push_back(static_cast<char>('a' + rng.Below(26)));
            }
            break;
        }
      }
      doc += (rng.Below(2) != 0) ? "\r\n" : "\n";
    }
    if (rng.Below(4) == 0) doc.pop_back();  // drop the final newline

    // One slicing shared by every arm: peak_buffered_bytes depends on where
    // drains fall, so only identical Feed boundaries make it comparable.
    std::vector<size_t> slices;
    for (size_t pos = 0; pos < doc.size();) {
      const size_t len = std::min(doc.size() - pos, 1 + rng.Below(23));
      slices.push_back(len);
      pos += len;
    }

    std::vector<std::vector<std::string>> want_rows;
    size_t want_peak = 0;
    bool first = true;
    for (const simd::TokenizerArm arm : simd::AvailableTokenizerArms()) {
      ASSERT_TRUE(simd::SetTokenizerArm(arm));
      IncrementalCsvParser parser;
      // Feed in the precomputed slices so structural bytes land on
      // boundaries — identically for every arm.
      size_t pos = 0;
      std::vector<std::vector<std::string>> got_rows;
      std::vector<std::string> row;
      for (const size_t len : slices) {
        parser.Feed(std::string_view(doc).substr(pos, len));
        pos += len;
        // Draining mid-parse must not change the result.
        while (parser.NextRow(&row)) got_rows.push_back(std::move(row));
      }
      ASSERT_TRUE(parser.Finish().ok()) << "iter " << iter;
      while (parser.NextRow(&row)) got_rows.push_back(std::move(row));
      if (first) {
        first = false;
        want_rows = got_rows;
        want_peak = parser.peak_buffered_bytes();
        // Anchor against the one-shot parse of the same document.
        auto oneshot = ParseCsv(doc);
        ASSERT_TRUE(oneshot.ok());
        EXPECT_EQ(got_rows, *oneshot) << "iter " << iter;
      } else {
        EXPECT_EQ(got_rows, want_rows)
            << "iter " << iter << " arm " << simd::TokenizerArmName(arm);
        EXPECT_EQ(parser.peak_buffered_bytes(), want_peak)
            << "iter " << iter << " arm " << simd::TokenizerArmName(arm);
      }
    }
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
}

TEST(InvertedIndexTest, FindsOverlappingColumns) {
  Corpus corpus;
  Table t;
  t.name = "t";
  Column a;
  a.name = "a";
  a.values = {"x", "y", "z"};
  Column b;
  b.name = "b";
  b.values = {"x", "y", "q"};
  Column c;
  c.name = "c";
  c.values = {"p", "q", "r"};
  t.columns = {a, b, c};
  corpus.AddTable(std::move(t));

  ValueInvertedIndex index(corpus);
  // Column ids follow corpus.AllColumns() order: a=0, b=1, c=2.
  const auto overlap2 = index.OverlappingColumns({"x", "y"}, 2);
  EXPECT_EQ(overlap2, (std::vector<uint32_t>{0, 1}));
  const auto overlap1 = index.OverlappingColumns({"q"}, 1);
  EXPECT_EQ(overlap1, (std::vector<uint32_t>{1, 2}));
  const auto excl = index.OverlappingColumns({"x", "y"}, 2, /*exclude=*/0);
  EXPECT_EQ(excl, (std::vector<uint32_t>{1}));
  // Duplicate query values count once.
  const auto dup = index.OverlappingColumns({"x", "x"}, 2);
  EXPECT_TRUE(dup.empty());
}

}  // namespace
}  // namespace av
