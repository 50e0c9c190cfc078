// Tests for the pluggable lake-format subsystem (corpus/format.h): format
// detection and the registry, JSONL nested flattening, the AVCOL1 columnar
// codec, gzip CSV, the CSV edge-case parity suite shared between the plain
// and gzip readers, streaming-residency regressions, and the cross-format
// index byte-identity golden (the load-bearing contract: one logical lake,
// four encodings, one AVIDX003 byte stream).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/temp_file.h"
#include "corpus/avcol.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "corpus/gzip.h"
#include "corpus/jsonl.h"
#include "index/indexer.h"
#include "index/pattern_index.h"
#include "lakegen/lakegen.h"
#include "tests/test_util.h"

namespace av {
namespace {

void WriteRawFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Column MakeCol(std::string table, std::string name,
               std::vector<std::string> values) {
  Column c;
  c.table_name = std::move(table);
  c.name = std::move(name);
  c.values = std::move(values);
  return c;
}

// ------------------------------------------------------------ registry

TEST(LakeFormatTest, ParseAndName) {
  LakeFormat f = LakeFormat::kAuto;
  EXPECT_TRUE(ParseLakeFormat("csv", &f));
  EXPECT_EQ(f, LakeFormat::kCsv);
  EXPECT_TRUE(ParseLakeFormat("csv.gz", &f));
  EXPECT_EQ(f, LakeFormat::kCsvGz);
  EXPECT_TRUE(ParseLakeFormat("gz", &f));
  EXPECT_EQ(f, LakeFormat::kCsvGz);
  EXPECT_TRUE(ParseLakeFormat("jsonl", &f));
  EXPECT_EQ(f, LakeFormat::kJsonl);
  EXPECT_TRUE(ParseLakeFormat("ndjson", &f));
  EXPECT_EQ(f, LakeFormat::kJsonl);
  EXPECT_TRUE(ParseLakeFormat("avcol", &f));
  EXPECT_EQ(f, LakeFormat::kAvcol);
  EXPECT_TRUE(ParseLakeFormat("auto", &f));
  EXPECT_EQ(f, LakeFormat::kAuto);
  EXPECT_FALSE(ParseLakeFormat("parquet", &f));
  EXPECT_STREQ(LakeFormatName(LakeFormat::kCsvGz), "csv.gz");
  EXPECT_STREQ(LakeFormatName(LakeFormat::kAvcol), "avcol");
}

TEST(LakeFormatTest, TableNameStripsFormatExtensions) {
  EXPECT_EQ(LakeTableName("orders.csv"), "orders");
  EXPECT_EQ(LakeTableName("orders.csv.gz"), "orders");
  EXPECT_EQ(LakeTableName("orders.jsonl"), "orders");
  EXPECT_EQ(LakeTableName("orders.ndjson"), "orders");
  EXPECT_EQ(LakeTableName("orders.avcol"), "orders");
  // Only format extensions strip; inner dots are part of the name.
  EXPECT_EQ(LakeTableName("a.b.csv"), "a.b");
  EXPECT_EQ(LakeTableName("README.md"), "README.md");
}

TEST(LakeFormatTest, RegistryCoversEveryConcreteFormat) {
  for (LakeFormat f : {LakeFormat::kCsv, LakeFormat::kCsvGz,
                       LakeFormat::kJsonl, LakeFormat::kAvcol}) {
    const LakeFormatHandler* h = FindLakeFormatHandler(f);
    ASSERT_NE(h, nullptr) << LakeFormatName(f);
    EXPECT_EQ(h->format, f);
    EXPECT_STREQ(h->name, LakeFormatName(f));
  }
  EXPECT_EQ(FindLakeFormatHandler(LakeFormat::kAuto), nullptr);
}

TEST(LakeFormatTest, DetectByExtensionAndMagic) {
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string csv = dir->File("t.csv");
  WriteRawFile(csv, "a,b\n1,2\n");
  auto det = DetectLakeFormat(csv);
  ASSERT_TRUE(det.ok());
  EXPECT_EQ(*det, LakeFormat::kCsv);

  Table t;
  t.name = "t";
  t.columns.push_back(MakeCol("t", "a", {"1"}));
  const std::string avcol = dir->File("t.avcol");
  ASSERT_TRUE(WriteTableAvcol(t, avcol).ok());
  det = DetectLakeFormat(avcol);
  ASSERT_TRUE(det.ok());
  EXPECT_EQ(*det, LakeFormat::kAvcol);

  if (GzipSupported()) {
    // Content wins over the extension: a gzip container named .csv is
    // detected (and read) as gzip CSV.
    auto gz = GzipCompress("a,b\n1,2\n");
    ASSERT_TRUE(gz.ok());
    const std::string disguised = dir->File("disguised.csv");
    WriteRawFile(disguised, *gz);
    det = DetectLakeFormat(disguised);
    ASSERT_TRUE(det.ok());
    EXPECT_EQ(*det, LakeFormat::kCsvGz);
  }

  const std::string readme = dir->File("README.md");
  WriteRawFile(readme, "# not lake data\n");
  EXPECT_EQ(DetectLakeFormat(readme).status().code(),
            StatusCode::kNotSupported);
}

TEST(LakeFormatTest, ListLakeFilesOrdersByTableNameAndSkipsStrays) {
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  WriteRawFile(dir->File("b.csv"), "x\n1\n");
  WriteRawFile(dir->File("a.jsonl"), "{\"x\":\"1\"}\n");
  WriteRawFile(dir->File("README.md"), "ignored\n");
  Table t;
  t.name = "c";
  t.columns.push_back(MakeCol("c", "x", {"1"}));
  ASSERT_TRUE(WriteTableAvcol(t, dir->File("c.avcol")).ok());

  auto files = ListLakeFiles(dir->path(), LakeFormat::kAuto);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 3u);
  EXPECT_EQ((*files)[0].table_name, "a");
  EXPECT_EQ((*files)[0].format, LakeFormat::kJsonl);
  EXPECT_EQ((*files)[1].table_name, "b");
  EXPECT_EQ((*files)[1].format, LakeFormat::kCsv);
  EXPECT_EQ((*files)[2].table_name, "c");
  EXPECT_EQ((*files)[2].format, LakeFormat::kAvcol);

  // Forcing a format narrows the listing to that format's files.
  auto only_csv = ListLakeFiles(dir->path(), LakeFormat::kCsv);
  ASSERT_TRUE(only_csv.ok());
  ASSERT_EQ(only_csv->size(), 1u);
  EXPECT_EQ((*only_csv)[0].table_name, "b");

  EXPECT_EQ(ListLakeFiles(dir->File("missing"), LakeFormat::kAuto)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// --------------------------------------------------------------- jsonl

TEST(JsonlTest, FlattensNestedObjectsToDottedPaths) {
  const std::string doc =
      "{\"id\":\"7\",\"user\":{\"name\":\"ada\",\"geo\":{\"lat\":1.5}}}\n"
      "{\"id\":\"8\",\"user\":{\"name\":\"bob\",\"geo\":{\"lat\":-2}}}\n";
  auto table = TableFromJsonl("t", doc);
  ASSERT_TRUE(table.ok()) << table.status().message();
  ASSERT_EQ(table->columns.size(), 3u);
  EXPECT_EQ(table->columns[0].name, "id");
  EXPECT_EQ(table->columns[1].name, "user.name");
  EXPECT_EQ(table->columns[2].name, "user.geo.lat");
  EXPECT_EQ(table->columns[2].values,
            (std::vector<std::string>{"1.5", "-2"}));
}

TEST(JsonlTest, ScalarConventions) {
  // Numbers keep their raw token text, null maps to "", booleans are
  // literal, arrays keep raw JSON text, missing paths pad with "".
  const std::string doc =
      "{\"n\":007e2,\"b\":true,\"z\":null,\"a\":[1, \"x\"]}\n"
      "{\"n\":1.50,\"b\":false,\"z\":\"ok\",\"extra\":\"e\"}\n";
  auto table = TableFromJsonl("t", doc);
  ASSERT_TRUE(table.ok()) << table.status().message();
  ASSERT_EQ(table->columns.size(), 5u);
  EXPECT_EQ(table->columns[0].values,
            (std::vector<std::string>{"007e2", "1.50"}));
  EXPECT_EQ(table->columns[1].values,
            (std::vector<std::string>{"true", "false"}));
  EXPECT_EQ(table->columns[2].values, (std::vector<std::string>{"", "ok"}));
  EXPECT_EQ(table->columns[3].values,
            (std::vector<std::string>{"[1, \"x\"]", ""}));
  EXPECT_EQ(table->columns[4].values, (std::vector<std::string>{"", "e"}));
}

TEST(JsonlTest, StringEscapesAndSurrogatePairs) {
  const std::string doc =
      "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"u\":\"\\u00e9\\ud83d\\ude00\"}\n";
  auto table = TableFromJsonl("t", doc);
  ASSERT_TRUE(table.ok()) << table.status().message();
  EXPECT_EQ(table->columns[0].values[0], "a\"b\\c\n\t");
  EXPECT_EQ(table->columns[1].values[0], "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonlTest, DuplicatePathResolvesLastWins) {
  auto table =
      TableFromJsonl("t", "{\"a\":{\"b\":\"x\"},\"a.b\":\"y\"}\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->columns.size(), 1u);
  EXPECT_EQ(table->columns[0].name, "a.b");
  EXPECT_EQ(table->columns[0].values[0], "y");
}

TEST(JsonlTest, MalformedLineReportsLineNumber) {
  auto table = TableFromJsonl("orders", "{\"a\":\"1\"}\n{broken\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kCorruption);
  EXPECT_NE(table.status().message().find("line 2"), std::string::npos)
      << table.status().message();
  EXPECT_NE(table.status().message().find("orders"), std::string::npos);

  EXPECT_FALSE(TableFromJsonl("t", "[1,2]\n").ok());   // not an object
  EXPECT_FALSE(TableFromJsonl("t", "\"str\"\n").ok());
  EXPECT_FALSE(TableFromJsonl("t", "{\"u\":\"\\ud83d\"}\n").ok());
}

TEST(JsonlTest, RoundTripsArbitraryTables) {
  Table t;
  t.name = "rt";
  t.columns.push_back(
      MakeCol("rt", "plain", {"a", "", "line\nbreak", "\"quoted\""}));
  t.columns.push_back(MakeCol("rt", "dotted.path", {"1", "2", "3", "4"}));
  t.columns.push_back(MakeCol("rt", "utf8", {"\xc3\xa9", "x", "\x01", "z"}));
  auto back = TableFromJsonl("rt", TableToJsonl(t));
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->columns.size(), t.columns.size());
  for (size_t i = 0; i < t.columns.size(); ++i) {
    EXPECT_EQ(back->columns[i].name, t.columns[i].name);
    EXPECT_EQ(back->columns[i].values, t.columns[i].values);
  }
}

// --------------------------------------------------------------- avcol

TEST(AvcolTest, RoundTripsArbitraryTables) {
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  Table t;
  t.name = "rt";
  t.columns.push_back(MakeCol("rt", "a", {"", "x,y", "line\nbreak", "\"q\""}));
  t.columns.push_back(MakeCol("rt", "b", {"1", "2", "3", std::string(1, '\0')}));
  const std::string path = dir->File("rt.avcol");
  ASSERT_TRUE(WriteTableAvcol(t, path).ok());
  auto back = ReadTableAvcol("rt", path);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->columns.size(), 2u);
  for (size_t i = 0; i < t.columns.size(); ++i) {
    EXPECT_EQ(back->columns[i].name, t.columns[i].name);
    EXPECT_EQ(back->columns[i].values, t.columns[i].values);
  }

  Table empty;
  empty.name = "empty";
  const std::string epath = dir->File("empty.avcol");
  ASSERT_TRUE(WriteTableAvcol(empty, epath).ok());
  auto eback = ReadTableAvcol("empty", epath);
  ASSERT_TRUE(eback.ok());
  EXPECT_TRUE(eback->columns.empty());
}

TEST(AvcolTest, RejectsCorruptionEverywhere) {
  Table t;
  t.name = "c";
  t.columns.push_back(MakeCol("c", "a", {"12", "345"}));
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("c.avcol");
  ASSERT_TRUE(WriteTableAvcol(t, path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  // Every single-byte flip must be rejected (the trailer checksum covers
  // the whole payload; the trailer itself is structurally verified).
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string mutated = *bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    EXPECT_FALSE(TableFromAvcolBuffer("c", mutated).ok()) << "byte " << i;
  }
  // Truncation at every prefix length.
  for (size_t len = 0; len < bytes->size(); ++len) {
    EXPECT_FALSE(
        TableFromAvcolBuffer("c", std::string_view(*bytes).substr(0, len))
            .ok())
        << "len " << len;
  }
}

#if !defined(AV_ASAN) && !defined(AV_TSAN)
/// `payload` padded with zero bytes to `size` bytes in all under a
/// restamped AVTRAIL1 trailer (the checksum is not a MAC).
std::string ForgedAvcolImage(std::string payload, size_t size) {
  payload.resize(size - kTrailerBytes, '\0');
  const uint64_t len = payload.size();
  const uint64_t digest = PolyHash64(payload);
  payload.append(reinterpret_cast<const char*>(&len), sizeof(len));
  payload.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  payload.append(kTrailerMagic, sizeof(kTrailerMagic));
  return payload;
}

template <class T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Parses `image` in a child whose address space may grow 32 MiB past its
/// size at the fork, which framing never needs: an allocation past that
/// kills the child with bad_alloc. The child exits 0 iff the parse fails
/// with kCorruption.
void ExpectCorruptionBeforeBuilding(const std::string& image) {
  EXPECT_EXIT(
      {
        std::ifstream statm("/proc/self/statm");
        uint64_t pages = 0;
        statm >> pages;
        const rlim_t bytes = static_cast<rlim_t>(
            pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)));
        struct rlimit limit;
        ::getrlimit(RLIMIT_AS, &limit);
        limit.rlim_cur = bytes + (rlim_t{32} << 20);
        ::setrlimit(RLIMIT_AS, &limit);
        const auto table = TableFromAvcolBuffer("forged", image);
        std::_Exit(table.status().code() == StatusCode::kCorruption ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}
#endif

TEST(AvcolTest, ForgedColumnCountIsCorruptionNotAnAllocation) {
#if defined(AV_ASAN) || defined(AV_TSAN)
  GTEST_SKIP() << "a sanitizer's shadow memory does not fit an address-space "
                  "limit";
#else
  // An 8 MiB file of empty columns (20 bytes each) whose count claims
  // 2^32 - 1 of them. A reader that sized its column table from the count
  // would ask for 2^32 x 160 bytes; one that built each column as it framed
  // it would build ~419k Columns (over 64 MiB) before the truncation.
  std::string payload(kAvcolMagic, sizeof(kAvcolMagic));
  AppendPod(&payload, uint32_t{0xFFFFFFFF});
  ExpectCorruptionBeforeBuilding(
      ForgedAvcolImage(std::move(payload), size_t{8} << 20));
#endif
}

TEST(AvcolTest, ForgedRowCountIsCorruptionNotAnAllocation) {
#if defined(AV_ASAN) || defined(AV_TSAN)
  GTEST_SKIP() << "a sanitizer's shadow memory does not fit an address-space "
                  "limit";
#else
  // A 16 MiB file whose first column claims as many empty rows as its
  // offsets can fill (~2M, every offset 0), followed by a second column
  // that claims one row more. A reader that built the first column before
  // framing the second would build ~2M empty strings (64 MiB) first.
  const size_t size = size_t{16} << 20;
  constexpr size_t kHeaderBytes = 4 + 8 + 8;  // name length, rows, blob
  std::string payload(kAvcolMagic, sizeof(kAvcolMagic));
  AppendPod(&payload, uint32_t{2});
  const uint64_t rows =
      (size - kTrailerBytes - payload.size() - 2 * kHeaderBytes) / 8;
  AppendPod(&payload, uint32_t{0});
  AppendPod(&payload, rows);
  AppendPod(&payload, uint64_t{0});
  payload.resize(payload.size() + rows * 8, '\0');
  AppendPod(&payload, uint32_t{0});
  AppendPod(&payload, rows + 1);
  AppendPod(&payload, uint64_t{0});
  const std::string image = ForgedAvcolImage(std::move(payload), size);
  const auto table = TableFromAvcolBuffer("forged", image);
  ASSERT_EQ(table.status().code(), StatusCode::kCorruption);
  EXPECT_NE(table.status().message().find("disagree"), std::string::npos)
      << table.status().ToString();
  ExpectCorruptionBeforeBuilding(image);
#endif
}

// ---------------------------------------------------------------- gzip

TEST(GzipTest, CompressDecompressRoundTrip) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  std::string doc;
  for (int i = 0; i < 1000; ++i) doc += "row," + std::to_string(i) + "\n";
  auto gz = GzipCompress(doc);
  ASSERT_TRUE(gz.ok());
  EXPECT_LT(gz->size(), doc.size());
  auto back = GzipDecompress(*gz);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, doc);

  EXPECT_EQ(GzipDecompress("not gzip at all").status().code(),
            StatusCode::kCorruption);
  // Truncated container: valid header, missing tail.
  EXPECT_FALSE(GzipDecompress(std::string_view(*gz).substr(0, gz->size() / 2))
                   .ok());
}

TEST(GzipTest, StreamsConcatenatedMembers) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  auto a = GzipCompress("a,b\n1,2\n");
  auto b = GzipCompress("3,4\n");
  ASSERT_TRUE(a.ok() && b.ok());
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("t.csv.gz");
  WriteRawFile(path, *a + *b);  // gunzip semantics: members concatenate
  auto src = OpenGzipFile(path);
  ASSERT_TRUE(src.ok());
  auto table = TableFromCsvSource("t", **src);
  ASSERT_TRUE(table.ok()) << table.status().message();
  ASSERT_EQ(table->columns.size(), 2u);
  EXPECT_EQ(table->columns[0].values, (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(table->columns[1].values, (std::vector<std::string>{"2", "4"}));
}

// --------------------------------------- CSV edge cases, plain == gzip

// Every edge-case document must load identically through the plain-CSV
// and gzip-CSV registry handlers: same table or same error. The gzip
// reader is the same parser behind a decompressing ByteSource, and this
// suite is what keeps that true.
class CsvParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CsvParityTest, PlainAndGzipReadersAgree) {
  const std::string doc = GetParam();
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string plain_path = dir->File("t.csv");
  WriteRawFile(plain_path, doc);
  auto plain = LoadLakeTable({plain_path, "t", LakeFormat::kCsv});

  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  auto gz = GzipCompress(doc);
  ASSERT_TRUE(gz.ok());
  const std::string gz_path = dir->File("t.csv.gz");
  WriteRawFile(gz_path, *gz);
  auto zipped = LoadLakeTable({gz_path, "t", LakeFormat::kCsvGz});

  ASSERT_EQ(plain.ok(), zipped.ok()) << doc;
  if (!plain.ok()) {
    // Identical failure, not merely failure: same code and same message up
    // to the per-file path context the loaders append.
    EXPECT_EQ(plain.status().code(), zipped.status().code());
    const auto strip_path = [](const std::string& m) {
      return m.substr(0, m.find(" ("));
    };
    EXPECT_EQ(strip_path(plain.status().message()),
              strip_path(zipped.status().message()));
    return;
  }
  ASSERT_EQ(plain->columns.size(), zipped->columns.size());
  for (size_t i = 0; i < plain->columns.size(); ++i) {
    EXPECT_EQ(plain->columns[i].name, zipped->columns[i].name);
    EXPECT_EQ(plain->columns[i].values, zipped->columns[i].values);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeCases, CsvParityTest,
    ::testing::Values(
        // CRLF line endings, with and without a trailing newline.
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\r\n1,2",
        // Quoted separators, "" escapes, embedded newlines.
        "name,note\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",z\n",
        // UTF-8 BOM before the header.
        "\xef\xbb\xbfid,v\n1,2\n",
        // Ragged rows: short rows pad with "", long rows keep the header
        // width... and the extra field is dropped.
        "a,b,c\n1\n2,3,4,5\n",
        // Empty file and a header-only file.
        "",
        "only,header\n",
        // Unterminated quote: both readers must fail identically.
        "a,b\n\"open,2\n"));

// ----------------------------------------------------------- residency

TEST(ResidencyTest, CsvStreamingNeverSlurpsTheFile) {
  // A ~6 MB single-table CSV must parse with the high-water mark bounded
  // by the longest row, not the file: the regression this pins is the old
  // rdbuf() slurp, where peak residency equaled the file size.
  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  std::string doc = "id,payload\n";
  for (int i = 0; i < 60000; ++i) {
    doc += std::to_string(i) + "," + std::string(80, 'x') + "\n";
  }
  ASSERT_GT(doc.size(), 4u << 20);
  const std::string path = dir->File("big.csv");
  WriteRawFile(path, doc);

  auto src = FileByteSource::Open(path);
  ASSERT_TRUE(src.ok());
  CsvStreamStats stats;
  auto table = TableFromCsvSource("big", **src, ',', &stats);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(stats.bytes_read, doc.size());
  // Bound: one 64 KiB read block + a row, far below the document.
  EXPECT_LT(stats.peak_buffered_bytes, 256u << 10)
      << "CSV loading buffered a whole file again";

  // The same bound holds end-to-end through the directory reader.
  auto reader = LakeDirColumnReader::Open(dir->path());
  ASSERT_TRUE(reader.ok());
  size_t columns = 0;
  while (true) {
    auto chunk = reader->NextChunk(16);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    columns += chunk->size();
  }
  EXPECT_EQ(columns, 2u);
  EXPECT_LT(reader->peak_csv_buffered_bytes(), 256u << 10);
}

// ------------------------------------------- cross-format byte identity

// The tentpole contract: the same logical lake encoded as plain CSV, gzip
// CSV, JSONL, and AVCOL1 produces byte-identical saved indexes, through
// the in-memory path AND the spill path. The constants match
// IndexerTest golden-index case (EnterpriseLakeConfig(60, 7)), so
// format-loading is pinned to the generated-corpus baseline too.
TEST(CrossFormatGoldenTest, FourEncodingsOneIndex) {
  const Corpus lake = GenerateLake(EnterpriseLakeConfig(60, 7));
  constexpr size_t kGoldenSize = 4010044;
  constexpr uint64_t kGoldenHash = 0x26c4d420d40eb4a0ULL;

  for (LakeFormat format : {LakeFormat::kCsv, LakeFormat::kCsvGz,
                            LakeFormat::kJsonl, LakeFormat::kAvcol}) {
    if (format == LakeFormat::kCsvGz && !GzipSupported()) continue;
    SCOPED_TRACE(LakeFormatName(format));
    auto dir = ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok());
    ASSERT_TRUE(SaveLakeToDir(lake, dir->path(), format).ok());

    for (const size_t budget : {size_t{0}, size_t{1} << 20}) {
      SCOPED_TRACE(budget == 0 ? "in-memory" : "spill");
      IndexerConfig cfg;
      cfg.num_threads = 2;
      cfg.lake_format = format;
      cfg.build.memory_budget_bytes = budget;
      auto built = BuildIndexFromDir(dir->path(), cfg);
      ASSERT_TRUE(built.ok()) << built.status().message();

      auto out = ScopedTempDir::Create();
      ASSERT_TRUE(out.ok());
      const std::string path = out->File("golden.idx");
      ASSERT_TRUE(built->Save(path).ok());
      auto file = ReadFileToString(path);
      ASSERT_TRUE(file.ok());
      auto payload_len = VerifyTrailer(*file);
      ASSERT_TRUE(payload_len.ok());
      const std::string_view payload(file->data(), *payload_len);
      EXPECT_EQ(payload.size(), kGoldenSize);
      EXPECT_EQ(PolyHash64(payload), kGoldenHash);
    }
  }
}

// Mixed-format directories stream in logical-table-name order, so even a
// lake where every table uses a different encoding chunks identically.
TEST(CrossFormatGoldenTest, MixedFormatDirectoryMatchesPureCsv) {
  const Corpus lake = testutil::SmallLake(40, 9);
  auto csv_dir = ScopedTempDir::Create();
  auto mixed_dir = ScopedTempDir::Create();
  ASSERT_TRUE(csv_dir.ok() && mixed_dir.ok());
  ASSERT_TRUE(SaveLakeToDir(lake, csv_dir->path(), LakeFormat::kCsv).ok());

  const LakeFormat cycle[] = {LakeFormat::kCsv, LakeFormat::kJsonl,
                              LakeFormat::kAvcol, LakeFormat::kCsvGz};
  for (size_t i = 0; i < lake.tables().size(); ++i) {
    LakeFormat f = cycle[i % 4];
    if (f == LakeFormat::kCsvGz && !GzipSupported()) f = LakeFormat::kCsv;
    const LakeFormatHandler* h = FindLakeFormatHandler(f);
    ASSERT_NE(h, nullptr);
    const Table& t = lake.tables()[i];
    ASSERT_TRUE(
        h->save(t, mixed_dir->File(t.name + h->extension)).ok());
  }

  IndexerConfig cfg;
  cfg.num_threads = 2;
  auto pure = BuildIndexFromDir(csv_dir->path(), cfg);
  auto mixed = BuildIndexFromDir(mixed_dir->path(), cfg);
  ASSERT_TRUE(pure.ok() && mixed.ok());
  auto out = ScopedTempDir::Create();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(pure->Save(out->File("pure.idx")).ok());
  ASSERT_TRUE(mixed->Save(out->File("mixed.idx")).ok());
  auto pure_bytes = ReadFileToString(out->File("pure.idx"));
  auto mixed_bytes = ReadFileToString(out->File("mixed.idx"));
  ASSERT_TRUE(pure_bytes.ok() && mixed_bytes.ok());
  EXPECT_EQ(*pure_bytes, *mixed_bytes);
}

}  // namespace
}  // namespace av
