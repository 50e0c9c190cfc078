// The AVIDX003 file layout (docs/FILE_FORMATS.md) in one place: the index's
// one writer (Save, and WriteSpillRun without the fsync) and one reader
// (Load, which reads spill runs back too) write and frame their entries and
// read their headers through these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/durable_file.h"
#include "common/status.h"

namespace av::index_file {

/// Leading magic of the current format, whose payload the AVTRAIL1 trailer
/// covers.
inline constexpr std::string_view kMagic = "AVIDX003";
/// Previous format, still read by PatternIndex::Load: the same payload with
/// this magic and no trailer.
inline constexpr std::string_view kMagicV2 = "AVIDX002";
/// Magic and u64 entry count.
inline constexpr size_t kHeaderBytes = kMagic.size() + sizeof(uint64_t);
/// An entry is a u64 key, a u32 name length, the name, an f64 sum_impurity
/// and a u32 column count: kEntryHeadBytes before the name, kMinEntryBytes
/// in all when the name is empty.
inline constexpr size_t kEntryHeadBytes = sizeof(uint64_t) + sizeof(uint32_t);
inline constexpr size_t kMinEntryBytes =
    kEntryHeadBytes + sizeof(double) + sizeof(uint32_t);
/// Longest name an entry may carry.
inline constexpr uint32_t kMaxNameBytes = uint32_t{1} << 24;

inline Status AppendEntry(DurableFileWriter& out, uint64_t key,
                          std::string_view name, double sum_impurity,
                          uint32_t columns) {
  const uint32_t len = static_cast<uint32_t>(name.size());
  AV_RETURN_NOT_OK(out.AppendPod(key));
  AV_RETURN_NOT_OK(out.AppendPod(len));
  AV_RETURN_NOT_OK(out.Append(name.data(), len));
  AV_RETURN_NOT_OK(out.AppendPod(sum_impurity));
  return out.AppendPod(columns);
}

/// The entry count of a payload of `payload_bytes` bytes that starts with
/// `head` (its first kHeaderBytes, fewer if it is shorter; the magic is the
/// caller's to check). kCorruption when the header is cut off or the count
/// is more entries than the payload can hold, so it never sizes an
/// allocation.
inline Result<uint64_t> ReadCount(std::string_view head,
                                  uint64_t payload_bytes) {
  if (payload_bytes < kHeaderBytes) {
    return Status::Corruption("truncated index header");
  }
  uint64_t n = 0;
  std::memcpy(&n, head.data() + kMagic.size(), sizeof(n));
  if (n > (payload_bytes - kHeaderBytes) / kMinEntryBytes) {
    return Status::Corruption("entry count exceeds file size");
  }
  return n;
}

/// One entry, viewed where it lies.
struct Entry {
  uint64_t key = 0;
  std::string_view name;
  double sum_impurity = 0;
  uint32_t columns = 0;
};

enum class FrameError : uint8_t { kNone, kTruncated, kBadLength };

/// Frames the entry at the start of `bytes` and sets `*size` to the bytes
/// it takes. kNone: `*entry` views it. kTruncated: `bytes` ends inside it
/// (when its length field is cut off too, `*size` is only kMinEntryBytes).
/// kBadLength: its name would pass kMaxNameBytes.
inline FrameError FrameEntry(std::string_view bytes, Entry* entry,
                             size_t* size) {
  *size = kMinEntryBytes;
  if (bytes.size() < kEntryHeadBytes) return FrameError::kTruncated;
  uint32_t len = 0;
  std::memcpy(&entry->key, bytes.data(), sizeof(entry->key));
  std::memcpy(&len, bytes.data() + sizeof(entry->key), sizeof(len));
  if (len > kMaxNameBytes) return FrameError::kBadLength;
  *size = kMinEntryBytes + len;
  if (bytes.size() < *size) return FrameError::kTruncated;
  entry->name = std::string_view(bytes.data() + kEntryHeadBytes, len);
  const char* tail = bytes.data() + kEntryHeadBytes + len;
  std::memcpy(&entry->sum_impurity, tail, sizeof(entry->sum_impurity));
  std::memcpy(&entry->columns, tail + sizeof(entry->sum_impurity),
              sizeof(entry->columns));
  return FrameError::kNone;
}

}  // namespace av::index_file
