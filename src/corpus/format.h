// The pluggable lake-format registry: one seam where every input format
// the corpus layer understands — plain CSV, gzip CSV, JSONL, AVCOL1 — is
// described once (extensions, magic bytes, loader, writer) and every layer
// above (BuildIndexStreaming, av_cli index/convert, lake_profiler,
// avserved --lake) dispatches through.
//
// Detection is magic bytes + extension: files are admitted to a lake by a
// known extension, then the leading bytes decide the actual format (a gzip
// header on a file named `.csv` reads as gzip CSV — content wins). Files
// with unrecognized extensions (README.md, dotfiles) are ignored in auto
// mode; forcing a format narrows the listing to that format's extensions.
//
// Ordering contract: lake files stream in (logical table name, path) order,
// where the table name is the filename with format extensions stripped —
// NOT raw path order. This is what makes the logical column sequence (and
// therefore every chunk boundary BuildIndexStreaming sees, and therefore
// the saved AVIDX003 bytes) identical for the same logical lake encoded in
// any format, which the cross-format golden-hash test pins.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "corpus/column.h"
#include "corpus/column_reader.h"
#include "corpus/corpus.h"
#include "corpus/csv.h"

namespace av {

/// The input formats the corpus layer understands. kAuto means "detect
/// per file"; the rest force one format.
enum class LakeFormat { kAuto, kCsv, kCsvGz, kJsonl, kAvcol };

/// Canonical spelling: "auto", "csv", "csv.gz", "jsonl", "avcol".
const char* LakeFormatName(LakeFormat format);

/// Parses a --format value (the canonical names plus "gz"/"csvgz" and
/// "ndjson" aliases). False on unknown spellings.
bool ParseLakeFormat(std::string_view text, LakeFormat* out);

/// One registry entry. `available` is false for formats recognized but not
/// compiled in (gzip without zlib) so detection can say *why* a file is
/// unreadable instead of skipping it silently.
struct LakeFormatHandler {
  LakeFormat format;
  const char* name;       ///< canonical --format spelling
  const char* extension;  ///< written extension, e.g. ".csv.gz"
  bool available;
  /// True when `magic` (the first 8 file bytes, possibly shorter) or the
  /// path identifies this format.
  bool (*matches)(std::string_view magic, const std::string& path);
  /// Loads one file into a Table named `table_name`. `csv_stats` collects
  /// parser residency for CSV-family formats (others ignore it).
  Result<Table> (*load)(const std::string& path,
                        const std::string& table_name,
                        CsvStreamStats* csv_stats);
  Status (*save)(const Table& table, const std::string& path);
};

/// All handlers, in detection-priority order (magic formats first).
const std::vector<LakeFormatHandler>& LakeFormatRegistry();

/// The handler for a concrete format (never kAuto). Always non-null for
/// enum values; `available` may be false.
const LakeFormatHandler* FindLakeFormatHandler(LakeFormat format);

/// One lake file after listing + detection.
struct LakeFileInfo {
  std::string path;
  std::string table_name;  ///< filename with format extensions stripped
  LakeFormat format;       ///< concrete detected/forced format
};

/// Strips the format-extension chain from a lake filename ("orders.csv.gz"
/// -> "orders"); returns the input unchanged for unknown extensions.
std::string LakeTableName(const std::string& filename);

/// Detects the concrete format of one file by magic bytes + extension.
/// kNotSupported for files no handler claims.
Result<LakeFormat> DetectLakeFormat(const std::string& path);

/// Lists the lake files under `dir` (non-recursive) in the streaming
/// order described above. `format` kAuto detects per file; a concrete
/// format restricts the listing to files of that format. Fails when the
/// directory is unreadable or a selected format is not compiled in.
Result<std::vector<LakeFileInfo>> ListLakeFiles(const std::string& dir,
                                                LakeFormat format);

/// Loads one listed lake file through its handler.
Result<Table> LoadLakeTable(const LakeFileInfo& info,
                            CsvStreamStats* csv_stats = nullptr);

/// Streams the columns of every lake file under a directory through the
/// format registry, loading one file at a time, under the full-chunk
/// contract (see corpus/column_reader.h). Open with a concrete format to
/// read only that format's files.
class LakeDirColumnReader : public ColumnReader {
 public:
  /// Lists + detects up front (cheap); file contents load lazily.
  static Result<LakeDirColumnReader> Open(const std::string& dir,
                                          LakeFormat format = LakeFormat::kAuto);

  Result<ColumnChunk> NextChunk(size_t max_columns) override;

  /// High-water mark of CSV parser residency across the files loaded so
  /// far (0 for non-CSV formats) — the slurp-regression test reads this
  /// to pin that loading never buffers a whole file.
  size_t peak_csv_buffered_bytes() const { return peak_csv_buffered_; }

 private:
  LakeDirColumnReader() = default;

  std::vector<LakeFileInfo> files_;
  size_t next_file_ = 0;
  /// Tables loaded but not fully consumed, with the index of the first
  /// unconsumed column in the front table.
  std::deque<std::shared_ptr<const Table>> pending_;
  size_t front_column_ = 0;
  size_t peak_csv_buffered_ = 0;
};

/// Loads a whole lake directory into memory through the registry
/// (identical table and column order to LakeDirColumnReader).
Result<Corpus> LoadLakeFromDir(const std::string& dir,
                               LakeFormat format = LakeFormat::kAuto);

/// Writes each table of `corpus` as `<dir>/<table><ext>` in `format`
/// (which must be concrete, not kAuto). Atomic per file.
Status SaveLakeToDir(const Corpus& corpus, const std::string& dir,
                     LakeFormat format);

}  // namespace av
