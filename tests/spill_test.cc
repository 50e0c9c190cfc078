// Out-of-core indexing: spill runs are AVIDX003 index files that Load reads
// back, the fold's byte-identity contract against the in-memory reduce,
// corruption rejection (both bit-rot the checksum catches and adversarial
// rewrites it cannot), temp-file hygiene, and the memory-budget residency
// bound.
#include "index/spill.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/file_ops.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/temp_file.h"
#include "corpus/column_reader.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "index/indexer.h"
#include "lakegen/lakegen.h"
#include "tests/test_util.h"

namespace av {
namespace {

namespace fs = std::filesystem;

using testutil::MakeTempDir;

/// Serialized AVIDX003 bytes of an index (the determinism contract's
/// currency: two indexes are "identical" iff these bytes are equal).
std::string Slurp(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *std::move(bytes) : std::string();
}

std::string SaveBytes(const PatternIndex& idx) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("idx.bin");
  EXPECT_TRUE(idx.Save(path).ok());
  return Slurp(path);
}

/// Every entry MergeSpillRunsBounded emits for the runs at `paths`, at the
/// smallest fan-in and with the runs' directory as its tmp_dir, and the
/// status it ends with. Whatever the fan-in, it reports no extra pass.
struct Walk {
  std::vector<SpillEntry> entries;
  Status status;
};
Walk MergeRuns(std::vector<std::string> paths) {
  Walk walk;
  size_t passes = 1;
  const std::string tmp_dir = fs::path(paths.front()).parent_path().string();
  walk.status = MergeSpillRunsBounded(
      std::move(paths), /*max_fanin=*/2, tmp_dir,
      [&walk](SpillEntry&& e) { walk.entries.push_back(std::move(e)); },
      &passes);
  EXPECT_EQ(passes, 0u);
  return walk;
}

// ---------------------------------------------------------------- TempDir

TEST(ScopedTempDirTest, CreatesAndRemovesRecursively) {
  std::string path;
  {
    auto dir = ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok());
    path = dir->path();
    EXPECT_TRUE(fs::is_directory(path));
    std::ofstream(dir->File("a.txt")) << "x";
    fs::create_directories(fs::path(path) / "sub");
    std::ofstream((fs::path(path) / "sub" / "b.txt").string()) << "y";
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(ScopedTempDirTest, ReleaseKeepsDirectory) {
  std::string path;
  {
    auto dir = ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok());
    path = dir->Release();
    EXPECT_FALSE(dir->valid());
  }
  EXPECT_TRUE(fs::exists(path));
  fs::remove_all(path);
}

TEST(ScopedTempDirTest, CreateFailsUnderNonDirectory) {
  auto parent = ScopedTempDir::Create();
  ASSERT_TRUE(parent.ok());
  const std::string file = parent->File("plain_file");
  std::ofstream(file) << "not a directory";
  auto dir = ScopedTempDir::Create(file);
  EXPECT_FALSE(dir.ok());
}

// ------------------------------------------------------------- Run format

TEST(SpillRunTest, RoundTripsSortedEntries) {
  PatternIndex chunk;
  chunk.Add("<digit>+", 0.25);
  chunk.Add("<letter>+", 0.0);
  chunk.Add("<letter>+", 0.5);
  chunk.Add("Mar <digit>{2}", 0.125);

  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("run.avspill");
  auto bytes = WriteSpillRun(chunk, path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, fs::file_size(path));

  const Walk walk = MergeRuns({path});
  ASSERT_TRUE(walk.status.ok()) << walk.status.ToString();
  const std::vector<SpillEntry>& entries = walk.entries;
  ASSERT_EQ(entries.size(), 3u);
  // Sorted by canonical string (the AVIDX003 Save order).
  EXPECT_EQ(entries[0].name, "<digit>+");
  EXPECT_EQ(entries[1].name, "<letter>+");
  EXPECT_EQ(entries[2].name, "Mar <digit>{2}");
  EXPECT_DOUBLE_EQ(entries[1].sum_impurity, 0.5);
  EXPECT_EQ(entries[1].columns, 2u);
  for (const SpillEntry& e : entries) EXPECT_EQ(e.key, PolyHash64(e.name));
}

TEST(SpillRunTest, RunIsTheChunksIndexFile) {
  PatternIndex chunk;
  for (int i = 0; i < 40; ++i) {
    chunk.Add("<letter>{" + std::to_string(i) + "}", 0.125 * (i % 5));
    chunk.Add("<digit>{" + std::to_string(i % 7) + "}", 1.0 / (i + 3));
  }
  ScopedTempDir dir = MakeTempDir();
  const std::string run = dir.File("run.avspill");
  const std::string saved = dir.File("saved.avidx");
  ASSERT_TRUE(WriteSpillRun(chunk, run).ok());
  ASSERT_TRUE(chunk.Save(saved).ok());
  const std::string run_bytes = Slurp(run);
  EXPECT_EQ(run_bytes, Slurp(saved));
  EXPECT_EQ(run_bytes.substr(0, 8), "AVIDX003");

  // A run loads as an index, and an index file folds as a run, in name
  // order with the index's own statistics.
  auto loaded = PatternIndex::Load(run);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveBytes(*loaded), run_bytes);
  std::vector<SpillEntry> expected;
  chunk.ForEachSorted(
      [&](uint64_t key, const std::string& name, const PatternIndex::Entry& e) {
        expected.push_back({key, name, e.sum_impurity, e.columns});
      });
  const Walk walk = MergeRuns({saved});
  ASSERT_TRUE(walk.status.ok()) << walk.status.ToString();
  ASSERT_EQ(walk.entries.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(walk.entries[i].key, expected[i].key);
    EXPECT_EQ(walk.entries[i].name, expected[i].name);
    EXPECT_EQ(walk.entries[i].sum_impurity, expected[i].sum_impurity);
    EXPECT_EQ(walk.entries[i].columns, expected[i].columns);
  }
}

TEST(SpillRunTest, MergeRejectsCorruptAndTruncatedRuns) {
  PatternIndex chunk;
  for (int i = 0; i < 3; ++i) {
    chunk.Add("<digit>{" + std::to_string(10 + i) + "} long pattern name pad",
              0.25);
  }
  ScopedTempDir dir = MakeTempDir();
  const std::string good = dir.File("good.avspill");
  ASSERT_TRUE(WriteSpillRun(chunk, good).ok());
  const std::string bytes = Slurp(good);
  ASSERT_EQ(bytes.size(), fs::file_size(good));

  auto write_variant = [&](const std::string& name,
                           const std::string& content) {
    const std::string path = dir.File(name);
    std::ofstream(path, std::ios::binary) << content;
    return path;
  };
  // A corrupt run after an intact one fails the whole merge, with an error
  // that names the corrupt run.
  auto expect_corrupt = [&good](const std::string& path) {
    const Walk walk = MergeRuns({good, path});
    EXPECT_EQ(walk.status.code(), StatusCode::kCorruption)
        << path << ": " << walk.status.ToString();
    EXPECT_NE(walk.status.message().find(path), std::string::npos)
        << walk.status.ToString();
  };

  // Rewrites the checksum trailer to match the (tampered) payload — the
  // adversary the checksum cannot catch, so only semantic validation can.
  auto patch_trailer = [](std::string file) {
    file.resize(file.size() - kTrailerBytes);
    const uint64_t len = file.size();
    const uint64_t digest = PolyHash64(file);
    file.append(reinterpret_cast<const char*>(&len), sizeof(len));
    file.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
    file.append(kTrailerMagic, sizeof(kTrailerMagic));
    return file;
  };
  // The entry count sits in the header, after the 8-byte magic.
  auto with_count = [&](uint64_t count) {
    std::string file = bytes;
    std::memcpy(file.data() + 8, &count, sizeof(count));
    return patch_trailer(file);
  };

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  expect_corrupt(write_variant("bad_magic.avspill", bad_magic));
  expect_corrupt(write_variant("bad_magic_restamped.avspill",
                               patch_trailer(bad_magic)));

  // Torn tail (the crash shape): the trailer is gone.
  expect_corrupt(
      write_variant("truncated.avspill", bytes.substr(0, bytes.size() - 5)));

  // Single-bit rot anywhere in the payload: the whole-payload checksum
  // catches it.
  // File tail layout: name | sum(8) | columns(4) | trailer(24), so size-37
  // lands on the last byte of the last entry's name.
  std::string flipped = bytes;
  flipped[bytes.size() - 37] ^= 0x40;
  expect_corrupt(write_variant("bit_rot.avspill", flipped));

  // --- adversarial variants with a RECOMPUTED (valid) trailer ---

  // Name byte flipped: the key no longer hashes to the name.
  expect_corrupt(write_variant("key_mismatch.avspill", patch_trailer(flipped)));

  // Entry count inflated past what the file can hold: the size clamp.
  expect_corrupt(write_variant("inflated_count.avspill", with_count(255)));
  // Inflated by one, within the clamp: the entries run out first.
  expect_corrupt(write_variant("inflated_by_one.avspill", with_count(4)));

  // Entry count under-reporting by one: a reader that trusted it would
  // silently drop the last entry.
  expect_corrupt(write_variant("deflated_count.avspill", with_count(2)));

  // An AVSPILL02 run, the previous run format: 9-byte magic, the entries,
  // the count after them, then the trailer.
  const std::string payload = bytes.substr(0, bytes.size() - kTrailerBytes);
  expect_corrupt(write_variant(
      "old_run.avspill",
      patch_trailer("AVSPILL02" + payload.substr(16) + payload.substr(8, 8) +
                    std::string(kTrailerBytes, '\0'))));

  // The intact file still reads fine (the variants above are the problem).
  EXPECT_TRUE(MergeRuns({good}).status.ok());
}

// ------------------------------------------------------- Merge determinism

/// One randomized chunk's evidence: (pattern name, impurity) insertions.
using ChunkOps = std::vector<std::pair<std::string, double>>;

PatternIndex BuildChunk(const ChunkOps& ops) {
  PatternIndex idx;
  for (const auto& [name, impurity] : ops) idx.Add(name, impurity);
  return idx;
}

TEST(SpillMergeTest, MergeMatchesInMemoryFoldByteForByte) {
  // Property test: N random chunk indexes over a shared name pool (so keys
  // collide across chunks and the float fold order matters), folded from
  // spill runs, must reproduce the in-memory MergeFrom fold byte-for-byte,
  // emit in name order and leave nothing beside the runs.
  Rng rng(20260731);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<ChunkOps> chunks(6 + trial);
    for (ChunkOps& ops : chunks) {
      const size_t n = 5 + rng.Below(40);
      for (size_t i = 0; i < n; ++i) {
        ops.emplace_back("<p" + std::to_string(rng.Below(25)) + ">",
                         rng.NextDouble());
      }
    }

    PatternIndex expected;
    for (const ChunkOps& ops : chunks) expected.MergeFrom(BuildChunk(ops));
    const std::string expected_bytes = SaveBytes(expected);

    ScopedTempDir dir = MakeTempDir();
    std::vector<std::string> paths;
    for (size_t c = 0; c < chunks.size(); ++c) {
      paths.push_back(dir.File("run_" + std::to_string(c) + ".avspill"));
      ASSERT_TRUE(WriteSpillRun(BuildChunk(chunks[c]), paths.back()).ok());
    }
    const Walk walk = MergeRuns(paths);
    ASSERT_TRUE(walk.status.ok()) << walk.status.ToString();
    PatternIndex merged;
    for (size_t i = 0; i < walk.entries.size(); ++i) {
      const SpillEntry& e = walk.entries[i];
      if (i > 0) {
        EXPECT_LT(walk.entries[i - 1].name, e.name);
      }
      merged.InsertAggregate(e.key, e.name, e.sum_impurity, e.columns);
    }
    EXPECT_EQ(SaveBytes(merged), expected_bytes) << "trial " << trial;
    EXPECT_EQ(static_cast<size_t>(std::distance(
                  fs::directory_iterator(dir.path()), fs::directory_iterator())),
              paths.size());
  }
}

// ------------------------------------------------- Out-of-core BuildIndex

TEST(SpillBuildTest, CsvStreamedSpillBuildMatchesInMemoryBuild) {
  // End-to-end out-of-core: lake on disk as CSVs, streamed chunk-by-chunk,
  // chunk indexes spilled and folded back from their runs — saved bytes
  // must equal the all-in-memory build over the identical corpus.
  const Corpus lake = testutil::SmallLake(300, 11);
  ScopedTempDir csv_dir = MakeTempDir();
  ASSERT_TRUE(SaveLakeToDir(lake, csv_dir.path(), LakeFormat::kCsv).ok());
  auto reloaded = LoadLakeFromDir(csv_dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reloaded.ok());

  IndexerConfig cfg;
  cfg.num_threads = 2;
  const std::string in_memory_bytes = SaveBytes(BuildIndex(*reloaded, cfg));

  IndexerConfig spill_cfg = cfg;
  spill_cfg.build.memory_budget_bytes = 4u << 20;
  auto reader = LakeDirColumnReader::Open(csv_dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reader.ok());
  IndexerReport report;
  auto streamed = BuildIndexStreaming(*reader, spill_cfg, &report);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(report.used_spill);
  EXPECT_EQ(report.spill_runs, 2u);  // ~300 columns = two 256-column chunks
  EXPECT_EQ(report.columns_total, reloaded->num_columns());
  EXPECT_EQ(SaveBytes(*streamed), in_memory_bytes);
}

TEST(SpillBuildTest, BudgetBoundsPeakChunkIndexResidency) {
  // Acceptance criterion: on an 800-column corpus the budgeted build keeps
  // peak chunk-index residency within the budget, while producing the same
  // bytes as the unbounded path (whose residency is every chunk at once).
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(800, 7));

  IndexerConfig unbounded;
  unbounded.num_threads = 2;
  CorpusColumnReader baseline_reader(corpus);
  IndexerReport baseline;
  auto in_memory = BuildIndexStreaming(baseline_reader, unbounded, &baseline);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_FALSE(baseline.used_spill);
  ASSERT_GT(baseline.peak_chunk_index_bytes, 0u);

  IndexerConfig budgeted = unbounded;
  budgeted.build.memory_budget_bytes = 36u << 20;
  ASSERT_LT(budgeted.build.memory_budget_bytes,
            baseline.peak_chunk_index_bytes);
  CorpusColumnReader reader(corpus);
  IndexerReport report;
  auto spilled = BuildIndexStreaming(reader, budgeted, &report);
  ASSERT_TRUE(spilled.ok());
  EXPECT_TRUE(report.used_spill);
  EXPECT_EQ(report.spill_runs, 4u);  // ceil(800 / 256)
  EXPECT_GT(report.spill_bytes, 0u);
  EXPECT_LE(report.peak_chunk_index_bytes,
            budgeted.build.memory_budget_bytes);
  EXPECT_EQ(SaveBytes(*spilled), SaveBytes(*in_memory));
}

TEST(SpillBuildTest, TinyBudgetBuildMatchesInMemoryBytes) {
  // A budget far below one chunk index still builds correctly: every chunk
  // spills, the map phase runs one chunk at a time, and the reduce folds
  // each run once into the in-memory build's bytes.
  const Corpus corpus = testutil::SmallLake(600, 13);
  IndexerConfig cfg;
  cfg.num_threads = 2;
  const std::string expected = SaveBytes(BuildIndex(corpus, cfg));

  IndexerConfig tiny = cfg;
  tiny.build.memory_budget_bytes = 1;
  IndexerReport report;
  CorpusColumnReader reader(corpus);
  auto built = BuildIndexStreaming(reader, tiny, &report);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(report.spill_runs, 3u);  // ceil(600 / 256)
  EXPECT_EQ(report.merge_passes, 0u);
  EXPECT_EQ(SaveBytes(*built), expected);
}

/// Forwards every durable syscall, but flips the first byte of each write,
/// so every file written under it fails its checksum.
class FlipFirstByteFileOps final : public FileOps {
 public:
  int Open(const char* path, int flags, mode_t mode) override {
    return RealFileOps().Open(path, flags, mode);
  }
  ssize_t Write(int fd, const void* buf, size_t n) override {
    std::string bytes(static_cast<const char*>(buf), n);
    if (n > 0) bytes[0] ^= 0x01;
    return RealFileOps().Write(fd, bytes.data(), n);
  }
  int Fsync(int fd) override { return RealFileOps().Fsync(fd); }
  int Close(int fd) override { return RealFileOps().Close(fd); }
  int Rename(const char* from, const char* to) override {
    return RealFileOps().Rename(from, to);
  }
  int Unlink(const char* path) override { return RealFileOps().Unlink(path); }
  int FsyncDir(const char* dir) override { return RealFileOps().FsyncDir(dir); }
};

TEST(SpillBuildTest, CorruptRunFailsTheBuild) {
  // The reduce reads each run back through Load and all of its checks: a
  // run that does not verify fails the build with an error naming it.
  const Corpus corpus = testutil::SmallLake(80, 3);
  IndexerConfig cfg;
  cfg.num_threads = 1;
  cfg.build.memory_budget_bytes = 1u << 20;
  FlipFirstByteFileOps flip;
  ScopedFileOps scoped(&flip);
  CorpusColumnReader reader(corpus);
  auto built = BuildIndexStreaming(reader, cfg, nullptr);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kCorruption);
  EXPECT_NE(built.status().message().find("run_0.avspill"), std::string::npos)
      << built.status().ToString();
}

TEST(SpillBuildTest, SpillDirectoryIsRemovedAfterBuild) {
  const Corpus corpus = testutil::SmallLake(80, 3);
  ScopedTempDir parent = MakeTempDir();
  IndexerConfig cfg;
  cfg.num_threads = 1;
  cfg.build.memory_budget_bytes = 1u << 20;
  cfg.build.spill_dir = parent.path();
  CorpusColumnReader reader(corpus);
  auto built = BuildIndexStreaming(reader, cfg, nullptr);
  ASSERT_TRUE(built.ok());
  // Every run lived under `parent`; all gone now.
  EXPECT_TRUE(fs::is_empty(parent.path()));
}

TEST(SpillBuildTest, UnwritableSpillDirFailsCleanAndBuildIndexFallsBack) {
  const Corpus corpus = testutil::SmallLake(60, 9);
  ScopedTempDir parent = MakeTempDir();
  const std::string not_a_dir = parent.File("file_not_dir");
  std::ofstream(not_a_dir) << "occupied";

  IndexerConfig cfg;
  cfg.num_threads = 1;
  cfg.build.memory_budget_bytes = 1u << 20;
  cfg.build.spill_dir = not_a_dir;

  // The streaming entry point propagates the error (and leaves nothing
  // behind — the only entry under `parent` is still the plain file).
  CorpusColumnReader reader(corpus);
  auto streamed = BuildIndexStreaming(reader, cfg, nullptr);
  EXPECT_FALSE(streamed.ok());
  size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(parent.path()))
    ++entries;
  EXPECT_EQ(entries, 1u);

  // The corpus entry point never fails: it warns and falls back in-memory,
  // producing the exact unbounded bytes.
  IndexerConfig unbounded;
  unbounded.num_threads = 1;
  const std::string expected = SaveBytes(BuildIndex(corpus, unbounded));
  IndexerReport report;
  testing::internal::CaptureStderr();
  const PatternIndex fallback = BuildIndex(corpus, cfg, &report);
  // A caller collecting a report owns the messaging: the structured
  // spill_fallback fields carry the warning and the library stays silent
  // (the stderr line is reserved for report-less calls).
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_FALSE(report.used_spill);
  EXPECT_TRUE(report.spill_fallback);  // ...and the report says so
  EXPECT_FALSE(report.spill_fallback_error.empty());
  EXPECT_EQ(SaveBytes(fallback), expected);

  // strict_spill turns the silent degradation into a hard error (the CLI
  // default: a requested memory budget must be honored or fail).
  IndexerConfig strict = cfg;
  strict.build.strict_spill = true;
  auto strict_build = TryBuildIndex(corpus, strict, nullptr);
  EXPECT_FALSE(strict_build.ok());
}

// --------------------------------------------------------- Column readers

TEST(ColumnReaderTest, CorpusReaderYieldsFullChunksInCorpusOrder) {
  const Corpus corpus = testutil::SmallLake(100, 21);
  const auto all = corpus.AllColumns();
  CorpusColumnReader reader(corpus);
  std::vector<const Column*> seen;
  while (true) {
    auto chunk = reader.NextChunk(7);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    // Full-chunk contract: short only at end of stream.
    if (seen.size() + chunk->size() < all.size()) {
      EXPECT_EQ(chunk->size(), 7u);
    }
    for (const Column* c : chunk->columns) seen.push_back(c);
  }
  ASSERT_EQ(seen.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(seen[i], all[i]);
}

TEST(ColumnReaderTest, CsvDirReaderMatchesLoadLakeFromDir) {
  const Corpus lake = testutil::SmallLake(90, 17);
  ScopedTempDir dir = MakeTempDir();
  ASSERT_TRUE(SaveLakeToDir(lake, dir.path(), LakeFormat::kCsv).ok());
  auto loaded = LoadLakeFromDir(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(loaded.ok());
  const auto all = loaded->AllColumns();

  auto reader = LakeDirColumnReader::Open(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reader.ok());
  size_t i = 0;
  std::vector<ColumnChunk> live;  // keep owners alive across the whole read
  while (true) {
    auto chunk = reader->NextChunk(11);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    if (i + chunk->size() < all.size()) {
      EXPECT_EQ(chunk->size(), 11u);
    }
    live.push_back(std::move(chunk).value());
    for (const Column* c : live.back().columns) {
      ASSERT_LT(i, all.size());
      EXPECT_EQ(c->name, all[i]->name);
      EXPECT_EQ(c->values, all[i]->values);
      ++i;
    }
  }
  EXPECT_EQ(i, all.size());
}

TEST(ColumnReaderTest, ChunkOwnerOutlivesReaderAdvance) {
  const Corpus lake = testutil::SmallLake(40, 29);
  ScopedTempDir dir = MakeTempDir();
  ASSERT_TRUE(SaveLakeToDir(lake, dir.path(), LakeFormat::kCsv).ok());
  auto reader = LakeDirColumnReader::Open(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reader.ok());
  auto first = reader->NextChunk(5);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  // Drain the reader; the first chunk's tables must stay alive through its
  // owner (ASan turns a violation into a hard failure).
  while (true) {
    auto chunk = reader->NextChunk(64);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
  }
  for (const Column* c : first->columns) {
    EXPECT_FALSE(c->name.empty());
    EXPECT_FALSE(c->values.empty());
  }
}

TEST(ColumnReaderTest, OpenRejectsMissingDirectory) {
  auto reader =
      LakeDirColumnReader::Open("/definitely/not/here", LakeFormat::kCsv);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace av
