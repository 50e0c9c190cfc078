#include "corpus/avcol.h"

#include <cstdint>
#include <cstring>

#include "common/durable_file.h"

namespace av {

namespace {

/// Bounds-checked little-endian reads over the payload.
struct AvcolCursor {
  std::string_view s;
  size_t i = 0;

  size_t remaining() const { return s.size() - i; }

  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    std::memcpy(v, s.data() + i, 4);
    i += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    std::memcpy(v, s.data() + i, 8);
    i += 8;
    return true;
  }
  bool GetBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = s.substr(i, n);
    i += n;
    return true;
  }
};

Status Corrupt(std::string_view what) {
  return Status::Corruption("AVCOL1: " + std::string(what));
}

/// Walks an AVCOL1 payload (magic through the last column) and checks
/// every frame: the headers, the row agreement between columns, each
/// column's offsets (nondecreasing, within the blob, ending at its length)
/// and that no bytes trail the last column. Calls
/// `on_column(name, rows, offsets, blob)` for each column once it is framed;
/// allocates nothing itself.
template <class OnColumn>
Status WalkAvcol(std::string_view payload, const OnColumn& on_column) {
  AvcolCursor cur{payload};
  std::string_view magic;
  if (!cur.GetBytes(sizeof(kAvcolMagic), &magic) ||
      std::memcmp(magic.data(), kAvcolMagic, sizeof(kAvcolMagic)) != 0) {
    return Corrupt("bad magic");
  }
  uint32_t ncols = 0;
  if (!cur.GetU32(&ncols)) return Corrupt("truncated column count");

  uint64_t expected_rows = 0;
  for (uint32_t c = 0; c < ncols; ++c) {
    uint32_t name_len = 0;
    if (!cur.GetU32(&name_len) || name_len > cur.remaining()) {
      return Corrupt("truncated column name");
    }
    std::string_view col_name;
    cur.GetBytes(name_len, &col_name);
    uint64_t rows = 0, blob_len = 0;
    if (!cur.GetU64(&rows) || !cur.GetU64(&blob_len)) {
      return Corrupt("truncated column header");
    }
    if (c == 0) {
      expected_rows = rows;
    } else if (rows != expected_rows) {
      return Corrupt("columns disagree on row count");
    }
    if (rows > cur.remaining() / 8 || blob_len > cur.remaining()) {
      return Corrupt("column sizes exceed file");
    }
    // Offsets first, then the blob: validate monotonicity before slicing.
    std::string_view offsets;
    cur.GetBytes(static_cast<size_t>(rows) * 8, &offsets);
    std::string_view blob;
    if (!cur.GetBytes(static_cast<size_t>(blob_len), &blob)) {
      return Corrupt("truncated value blob");
    }
    uint64_t prev = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t end = 0;
      std::memcpy(&end, offsets.data() + r * 8, 8);
      if (end < prev || end > blob_len) {
        return Corrupt("non-monotone value offsets");
      }
      prev = end;
    }
    if (prev != blob_len) return Corrupt("value blob not fully covered");
    on_column(col_name, rows, offsets, blob);
  }
  if (cur.remaining() != 0) return Corrupt("trailing bytes after columns");
  return Status::OK();
}

}  // namespace

Status WriteTableAvcol(const Table& table, const std::string& path) {
  DurableFileWriter out;
  AV_RETURN_NOT_OK(out.Open(path, {.checksum = true, .sync = true}));
  AV_RETURN_NOT_OK(out.Append(kAvcolMagic, sizeof(kAvcolMagic)));
  AV_RETURN_NOT_OK(out.AppendPod(static_cast<uint32_t>(table.columns.size())));
  const uint64_t rows = table.num_rows();
  for (const Column& col : table.columns) {
    AV_RETURN_NOT_OK(out.AppendPod(static_cast<uint32_t>(col.name.size())));
    AV_RETURN_NOT_OK(out.Append(col.name));
    AV_RETURN_NOT_OK(out.AppendPod(rows));
    uint64_t blob_len = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      blob_len += r < col.values.size() ? col.values[r].size() : 0;
    }
    AV_RETURN_NOT_OK(out.AppendPod(blob_len));
    uint64_t end = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      end += r < col.values.size() ? col.values[r].size() : 0;
      AV_RETURN_NOT_OK(out.AppendPod(end));
    }
    for (uint64_t r = 0; r < rows && r < col.values.size(); ++r) {
      AV_RETURN_NOT_OK(out.Append(col.values[r]));
    }
  }
  return out.Commit();
}

Result<Table> TableFromAvcolBuffer(std::string_view name,
                                   std::string_view bytes) {
  auto payload_len = VerifyTrailer(bytes);
  if (!payload_len.ok()) return payload_len.status();
  const std::string_view payload = bytes.substr(0, *payload_len);

  // Frame the whole image before building anything: a forged count or size
  // fails here as kCorruption, before it has cost any memory.
  size_t ncols = 0;
  AV_RETURN_NOT_OK(WalkAvcol(
      payload, [&ncols](std::string_view, uint64_t, std::string_view,
                        std::string_view) { ++ncols; }));

  Table table;
  table.name = std::string(name);
  table.columns.reserve(ncols);
  AV_RETURN_NOT_OK(WalkAvcol(payload, [&table](std::string_view col_name,
                                                uint64_t rows,
                                                std::string_view offsets,
                                                std::string_view blob) {
    Column col;
    col.table_name = table.name;
    col.name = std::string(col_name);
    col.values.reserve(rows);
    uint64_t prev = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t end = 0;
      std::memcpy(&end, offsets.data() + r * 8, 8);
      col.values.emplace_back(blob.substr(prev, end - prev));
      prev = end;
    }
    table.columns.push_back(std::move(col));
  }));
  return table;
}

Result<Table> ReadTableAvcol(std::string_view name, const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return TableFromAvcolBuffer(name, *bytes);
}

}  // namespace av
