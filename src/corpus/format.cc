#include "corpus/format.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/durable_file.h"
#include "common/strings.h"
#include "corpus/avcol.h"
#include "corpus/byte_source.h"
#include "corpus/gzip.h"
#include "corpus/jsonl.h"

namespace av {

namespace {

bool HasGzipMagic(std::string_view magic) {
  return magic.size() >= 2 && magic[0] == '\x1f' && magic[1] == '\x8b';
}

bool HasAvcolMagic(std::string_view magic) {
  return magic.size() >= sizeof(kAvcolMagic) &&
         std::memcmp(magic.data(), kAvcolMagic, sizeof(kAvcolMagic)) == 0;
}

// --- per-format handler functions -----------------------------------------

Result<Table> LoadCsvFile(const std::string& path,
                          const std::string& table_name,
                          CsvStreamStats* csv_stats) {
  auto src = FileByteSource::Open(path);
  if (!src.ok()) return src.status();
  auto table = TableFromCsvSource(table_name, **src, ',', csv_stats);
  if (!table.ok()) {
    return Status(table.status().code(),
                  table.status().message() + " (" + path + ")");
  }
  return table;
}

Status SaveTextFile(const std::string& path, std::string_view bytes) {
  // Atomic, error-checked write; interchange formats other tools read get
  // no checksum trailer.
  DurableFileWriter out;
  AV_RETURN_NOT_OK(out.Open(path, {.checksum = false, .sync = true}));
  AV_RETURN_NOT_OK(out.Append(bytes));
  return out.Commit();
}

Status SaveCsvFile(const Table& table, const std::string& path) {
  return SaveTextFile(path, TableToCsv(table));
}

Result<Table> LoadCsvGzFile(const std::string& path,
                            const std::string& table_name,
                            CsvStreamStats* csv_stats) {
  auto src = OpenGzipFile(path);
  if (!src.ok()) return src.status();
  auto table = TableFromCsvSource(table_name, **src, ',', csv_stats);
  if (!table.ok()) {
    return Status(table.status().code(),
                  table.status().message() + " (" + path + ")");
  }
  return table;
}

Status SaveCsvGzFile(const Table& table, const std::string& path) {
  auto gz = GzipCompress(TableToCsv(table));
  if (!gz.ok()) return gz.status();
  return SaveTextFile(path, *gz);
}

Result<Table> LoadJsonlFile(const std::string& path,
                            const std::string& table_name,
                            CsvStreamStats*) {
  auto src = FileByteSource::Open(path);
  if (!src.ok()) return src.status();
  auto table = TableFromJsonlSource(table_name, **src);
  if (!table.ok()) {
    return Status(table.status().code(),
                  table.status().message() + " (" + path + ")");
  }
  return table;
}

Status SaveJsonlFile(const Table& table, const std::string& path) {
  return SaveTextFile(path, TableToJsonl(table));
}

Result<Table> LoadAvcolFile(const std::string& path,
                            const std::string& table_name, CsvStreamStats*) {
  return ReadTableAvcol(table_name, path);
}

Status SaveAvcolFile(const Table& table, const std::string& path) {
  return WriteTableAvcol(table, path);
}

// --- matchers (magic first, then extension) -------------------------------

bool MatchCsvGz(std::string_view magic, const std::string& path) {
  return HasGzipMagic(magic) || EndsWith(path, ".csv.gz") ||
         EndsWith(path, ".gz");
}

bool MatchAvcol(std::string_view magic, const std::string& path) {
  return HasAvcolMagic(magic) || EndsWith(path, ".avcol");
}

bool MatchCsv(std::string_view, const std::string& path) {
  return EndsWith(path, ".csv");
}

bool MatchJsonl(std::string_view, const std::string& path) {
  return EndsWith(path, ".jsonl") || EndsWith(path, ".ndjson");
}

bool HasKnownLakeExtension(const std::string& filename) {
  return EndsWith(filename, ".csv") || EndsWith(filename, ".csv.gz") ||
         EndsWith(filename, ".gz") || EndsWith(filename, ".jsonl") ||
         EndsWith(filename, ".ndjson") || EndsWith(filename, ".avcol");
}

}  // namespace

const std::vector<LakeFormatHandler>& LakeFormatRegistry() {
  // Magic-bearing formats first: content outranks a misleading extension.
  static const std::vector<LakeFormatHandler> kRegistry = {
      {LakeFormat::kCsvGz, "csv.gz", ".csv.gz", GzipSupported(), MatchCsvGz,
       LoadCsvGzFile, SaveCsvGzFile},
      {LakeFormat::kAvcol, "avcol", ".avcol", true, MatchAvcol, LoadAvcolFile,
       SaveAvcolFile},
      {LakeFormat::kCsv, "csv", ".csv", true, MatchCsv, LoadCsvFile,
       SaveCsvFile},
      {LakeFormat::kJsonl, "jsonl", ".jsonl", true, MatchJsonl, LoadJsonlFile,
       SaveJsonlFile},
  };
  return kRegistry;
}

const LakeFormatHandler* FindLakeFormatHandler(LakeFormat format) {
  for (const LakeFormatHandler& h : LakeFormatRegistry()) {
    if (h.format == format) return &h;
  }
  return nullptr;
}

const char* LakeFormatName(LakeFormat format) {
  if (format == LakeFormat::kAuto) return "auto";
  const LakeFormatHandler* h = FindLakeFormatHandler(format);
  return h ? h->name : "?";
}

bool ParseLakeFormat(std::string_view text, LakeFormat* out) {
  if (text == "auto") {
    *out = LakeFormat::kAuto;
  } else if (text == "csv") {
    *out = LakeFormat::kCsv;
  } else if (text == "csv.gz" || text == "csvgz" || text == "gz") {
    *out = LakeFormat::kCsvGz;
  } else if (text == "jsonl" || text == "ndjson") {
    *out = LakeFormat::kJsonl;
  } else if (text == "avcol") {
    *out = LakeFormat::kAvcol;
  } else {
    return false;
  }
  return true;
}

std::string LakeTableName(const std::string& filename) {
  std::string name = filename;
  auto strip = [&name](std::string_view ext) {
    if (EndsWith(name, ext)) {
      name.resize(name.size() - ext.size());
      return true;
    }
    return false;
  };
  strip(".gz");
  if (!strip(".csv") && !strip(".jsonl") && !strip(".ndjson")) strip(".avcol");
  return name;
}

Result<LakeFormat> DetectLakeFormat(const std::string& path) {
  char magic_buf[8] = {};
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.read(magic_buf, sizeof(magic_buf));
  const std::string_view magic(magic_buf, static_cast<size_t>(in.gcount()));
  for (const LakeFormatHandler& h : LakeFormatRegistry()) {
    if (h.matches(magic, path)) {
      if (!h.available) {
        return Status::NotSupported(
            std::string(h.name) + " lake file " + path +
            " requires a build with that format enabled (zlib missing?)");
      }
      return h.format;
    }
  }
  return Status::NotSupported("no lake format matches " + path);
}

Result<std::vector<LakeFileInfo>> ListLakeFiles(const std::string& dir,
                                                LakeFormat format) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  const LakeFormatHandler* forced =
      format == LakeFormat::kAuto ? nullptr : FindLakeFormatHandler(format);
  if (forced && !forced->available) {
    return Status::NotSupported(std::string(forced->name) +
                                " lake input is not enabled in this build "
                                "(zlib missing?)");
  }
  std::vector<LakeFileInfo> files;
  // A listing failure must surface as an error: silently iterating nothing
  // would make an unreadable lake look like an empty one (and an "empty"
  // index build would report success). A failed increment lands on the end
  // iterator, so ec is checked after the loop too.
  fs::directory_iterator it(dir, ec);
  for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string path = it->path().string();
    const std::string filename = it->path().filename().string();
    if (forced) {
      // Forced format: admit by this handler's extensions only; no magic
      // sniff (the loader reports wrong bytes).
      if (!forced->matches(std::string_view(), path)) continue;
      files.push_back({path, LakeTableName(filename), format});
      continue;
    }
    if (!HasKnownLakeExtension(filename)) continue;
    auto detected = DetectLakeFormat(path);
    if (!detected.ok()) return detected.status();
    files.push_back({path, LakeTableName(filename), *detected});
  }
  if (ec) return Status::IOError("cannot list " + dir + ": " + ec.message());
  // Logical-table-name order, NOT path order: the same logical lake must
  // stream identically whatever extension its files carry (header comment).
  std::sort(files.begin(), files.end(),
            [](const LakeFileInfo& a, const LakeFileInfo& b) {
              if (a.table_name != b.table_name) {
                return a.table_name < b.table_name;
              }
              return a.path < b.path;
            });
  return files;
}

Result<Table> LoadLakeTable(const LakeFileInfo& info,
                            CsvStreamStats* csv_stats) {
  const LakeFormatHandler* h = FindLakeFormatHandler(info.format);
  if (!h) return Status::InvalidArgument("cannot load with format=auto");
  return h->load(info.path, info.table_name, csv_stats);
}

Result<LakeDirColumnReader> LakeDirColumnReader::Open(const std::string& dir,
                                                      LakeFormat format) {
  auto files = ListLakeFiles(dir, format);
  if (!files.ok()) return files.status();
  LakeDirColumnReader reader;
  reader.files_ = std::move(files).value();
  return reader;
}

Result<ColumnChunk> LakeDirColumnReader::NextChunk(size_t max_columns) {
  // Count the columns already buffered; load files until a full chunk is
  // buffered or the lake is exhausted, so chunk boundaries depend only on
  // the logical column sequence, never on file (or format) boundaries.
  auto buffered = [this] {
    size_t n = 0;
    for (const auto& t : pending_) n += t->columns.size();
    return n - front_column_;
  };
  while (buffered() < max_columns && next_file_ < files_.size()) {
    const LakeFileInfo& info = files_[next_file_++];
    CsvStreamStats stats;
    auto table = LoadLakeTable(info, &stats);
    if (!table.ok()) return table.status();
    peak_csv_buffered_ =
        std::max(peak_csv_buffered_, stats.peak_buffered_bytes);
    if (table->columns.empty()) continue;
    pending_.push_back(
        std::make_shared<const Table>(std::move(table).value()));
  }

  ColumnChunk chunk;
  // The chunk's owner pins every table it borrows from; tables fully
  // consumed by this chunk are dropped from the pending queue and survive
  // only through owners of still-live chunks.
  auto owners = std::make_shared<std::vector<std::shared_ptr<const Table>>>();
  while (chunk.columns.size() < max_columns && !pending_.empty()) {
    const std::shared_ptr<const Table>& table = pending_.front();
    if (owners->empty() || owners->back() != table) owners->push_back(table);
    chunk.columns.push_back(&table->columns[front_column_]);
    if (++front_column_ == table->columns.size()) {
      pending_.pop_front();
      front_column_ = 0;
    }
  }
  chunk.owner = std::move(owners);
  return chunk;
}

Result<Corpus> LoadLakeFromDir(const std::string& dir, LakeFormat format) {
  auto files = ListLakeFiles(dir, format);
  if (!files.ok()) return files.status();
  Corpus corpus;
  for (const LakeFileInfo& info : *files) {
    auto table = LoadLakeTable(info);
    if (!table.ok()) return table.status();
    if (table->columns.empty()) continue;  // e.g. an empty JSONL file
    corpus.AddTable(std::move(table).value());
  }
  return corpus;
}

Status SaveLakeToDir(const Corpus& corpus, const std::string& dir,
                     LakeFormat format) {
  const LakeFormatHandler* h = FindLakeFormatHandler(format);
  if (!h) return Status::InvalidArgument("cannot save with format=auto");
  if (!h->available) {
    return Status::NotSupported(std::string(h->name) +
                                " lake output is not enabled in this build "
                                "(zlib missing?)");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  for (const Table& t : corpus.tables()) {
    AV_RETURN_NOT_OK(h->save(t, dir + "/" + t.name + h->extension));
  }
  return Status::OK();
}

}  // namespace av
