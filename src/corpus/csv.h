// Minimal RFC-4180-style CSV reader/writer used to persist and load corpora.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "corpus/byte_source.h"
#include "corpus/column.h"

namespace av {

/// Parses one CSV document into rows of fields. Handles quoted fields with
/// embedded separators, quotes ("" escaping) and newlines. CRLF tolerated;
/// a leading UTF-8 BOM is stripped.
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char sep = ',');

/// Push-driven CSV state machine: accepts the document in arbitrary byte
/// slices (Feed), emits completed rows (NextRow), and reports the format
/// error — an unterminated quoted field — at Finish. Grammar is identical
/// to ParseCsv (quoted fields, "" escaping, CRLF tolerated, leading UTF-8
/// BOM stripped); ParseCsv is in fact one Feed + Finish.
///
/// The parser never buffers raw input beyond the quote/BOM lookahead: only
/// the current partial field/row and rows not yet popped are resident, so a
/// caller that drains rows between Feeds holds O(longest row) regardless of
/// document size. `peak_buffered_bytes` is that high-water mark — the
/// slurp-regression test pins it.
///
/// Feed scans for the next structural byte (separator/quote/newline) with
/// the tokenizer's dispatch-selected multi-needle kernel (see
/// pattern/simd/token_simd.h) and appends clean spans in bulk; only
/// structural bytes run through the per-byte state machine. Rows and
/// residency accounting are byte-identical across dispatch arms.
class IncrementalCsvParser {
 public:
  explicit IncrementalCsvParser(char sep = ',') : sep_(sep) {}

  /// Consumes the next slice of the document.
  void Feed(std::string_view bytes);

  /// Marks end of input, flushing a trailing row without a final newline.
  /// Corruption when the document ends inside a quoted field.
  Status Finish();

  /// Pops the next completed row; false when none is buffered.
  bool NextRow(std::vector<std::string>* row);

  /// High-water mark of field bytes resident in the parser (partial
  /// field/row plus completed rows not yet popped).
  size_t peak_buffered_bytes() const { return peak_buffered_; }

 private:
  void Consume(char c);
  void EndField();
  void EndRow();
  void NotePeak() {
    if (buffered_ > peak_buffered_) peak_buffered_ = buffered_;
  }

  char sep_;
  bool in_quotes_ = false;
  bool field_started_ = false;
  /// Inside quotes, a '"' was seen and the next char decides whether it was
  /// an escape ("") or the closing quote — state that must survive a Feed
  /// boundary.
  bool quote_pending_ = false;
  bool finished_ = false;
  /// Stream-start lookahead for the 3-byte UTF-8 BOM (EF BB BF).
  bool at_start_ = true;
  std::string bom_hold_;
  std::string field_;
  std::vector<std::string> row_;
  std::deque<std::vector<std::string>> ready_;
  size_t buffered_ = 0;
  size_t peak_buffered_ = 0;
};

/// Residency accounting of one streamed parse (for tests and profiling).
struct CsvStreamStats {
  size_t bytes_read = 0;           ///< raw bytes pulled from the source
  size_t peak_buffered_bytes = 0;  ///< parser high-water mark (see above)
};

/// Streams a CSV document out of `src` into a Table (first row = header)
/// in fixed-size blocks — the raw text is never resident at once.
Result<Table> TableFromCsvSource(std::string_view name, ByteSource& src,
                                 char sep = ',',
                                 CsvStreamStats* stats = nullptr);

/// Serializes rows to CSV, quoting fields when needed.
std::string WriteCsv(const std::vector<std::vector<std::string>>& rows,
                     char sep = ',');

/// Serializes a table to CSV text (header + rows).
std::string TableToCsv(const Table& table, char sep = ',');

}  // namespace av
