// Streaming column access for the offline indexing job: yields the corpus
// as fixed-size column chunks without requiring the whole lake in memory.
//
// The chunk structure is part of the determinism contract of BuildIndex
// (docs/ARCHITECTURE.md): per-key floating-point accumulation folds
// chunk-local partial sums in chunk order, so two readers over the same
// logical column sequence must produce the same chunk boundaries for the
// saved index bytes to be identical. Readers therefore fill every chunk to
// exactly `max_columns` columns until the stream is exhausted — a chunk is
// short only when it is the last one — regardless of how the columns are
// laid out in storage (CSV file boundaries never shift a chunk boundary).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/column.h"
#include "corpus/corpus.h"

namespace av {

/// A batch of columns plus the storage that keeps them alive. `columns`
/// borrows; `owner` (possibly null, e.g. for views into a caller-owned
/// Corpus) pins the backing tables until the chunk is destroyed, so chunks
/// can be processed concurrently with the reader advancing.
struct ColumnChunk {
  std::vector<const Column*> columns;
  std::shared_ptr<const void> owner;

  bool empty() const { return columns.empty(); }
  size_t size() const { return columns.size(); }
};

/// Sequential source of columns in a stable corpus order.
class ColumnReader {
 public:
  virtual ~ColumnReader() = default;

  /// Yields the next chunk of exactly `max_columns` columns (fewer only at
  /// end of stream; an empty chunk means the stream is exhausted).
  virtual Result<ColumnChunk> NextChunk(size_t max_columns) = 0;
};

/// Adapter over an in-memory Corpus (no copies; the corpus must outlive
/// every yielded chunk).
class CorpusColumnReader : public ColumnReader {
 public:
  explicit CorpusColumnReader(const Corpus& corpus)
      : columns_(corpus.AllColumns()) {}

  Result<ColumnChunk> NextChunk(size_t max_columns) override;

 private:
  std::vector<const Column*> columns_;
  size_t next_ = 0;
};

}  // namespace av
