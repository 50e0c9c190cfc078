// AVCOL1: the minimal self-contained columnar lake format (written by
// `av_cli convert`, read by the format registry). Per-column contiguous
// string blocks plus end offsets, so a reader slices values straight out
// of the loaded buffer — no scanning, quoting, or unescaping on the read
// path, which is what makes it the cheapest format to index from.
//
// Layout (all integers little-endian; full spec in docs/FILE_FORMATS.md):
//
//   offset  size          field
//   +0      8             magic "AVCOL001"
//   +8      4             u32 column count
//   then per column:
//           4             u32 name length
//           name length   column name bytes
//           8             u64 row count
//           8             u64 value-blob length
//           8 * rows      u64 cumulative end offsets into the blob
//           blob length   concatenated value bytes
//   last    24            AVTRAIL1 checksum trailer (common/durable_file.h)
//
// Every column must carry the same row count (the Table invariant). The
// loader verifies the trailer first, then frames the whole payload —
// headers, row agreement, offsets nondecreasing, final offset == blob
// length, exact payload consumption — before it builds a single column, so
// a torn or hostile file is rejected as kCorruption, never sliced, and a
// forged count costs no memory.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "corpus/column.h"

namespace av {

/// Leading magic of an AVCOL1 file.
inline constexpr char kAvcolMagic[8] = {'A', 'V', 'C', 'O', 'L', '0', '0',
                                        '1'};

/// Writes `table` as an AVCOL1 file (atomic + checksummed).
Status WriteTableAvcol(const Table& table, const std::string& path);

/// Parses an in-memory AVCOL1 image (trailer included). Nothing is built
/// until the whole image has framed clean.
Result<Table> TableFromAvcolBuffer(std::string_view name,
                                   std::string_view bytes);

/// Loads an AVCOL1 file.
Result<Table> ReadTableAvcol(std::string_view name, const std::string& path);

}  // namespace av
