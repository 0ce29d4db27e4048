// A relation stored as chunked columnar segments. Facts append (AppendRow,
// or Insert over it) into plain per-column tail buffers; every
// kDefaultChunkCapacity rows the tail is sealed into an immutable chunk of
// typed Segments (dictionary-encoded where profitable) with per-column
// ChunkColumnStats. Row indexes are stable (no deletion), which keeps
// FactRef, block ids and tuple ids valid while noise is injected. Readers
// consume column runs through ForEachRun/ScanMatching (the vectorized
// path), read typed slots through SlotAt (the query evaluator), or
// materialize one row as a Tuple through row(), the counterpart of Insert.
// See docs/storage.md for the full storage contract.
#ifndef CQABENCH_STORAGE_RELATION_H_
#define CQABENCH_STORAGE_RELATION_H_

#include <atomic>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "storage/chunk_stats.h"
#include "storage/schema.h"
#include "storage/segment.h"
#include "storage/tuple.h"

namespace cqa {

/// A fact of the database, addressed globally as (relation id, row index).
struct FactRef {
  size_t relation_id = 0;
  size_t row = 0;

  friend bool operator==(const FactRef& a, const FactRef& b) {
    return a.relation_id == b.relation_id && a.row == b.row;
  }
  friend bool operator<(const FactRef& a, const FactRef& b) {
    if (a.relation_id != b.relation_id) return a.relation_id < b.relation_id;
    return a.row < b.row;
  }
};

struct FactRefHash {
  size_t operator()(const FactRef& f) const {
    size_t seed = f.relation_id;
    HashCombine(seed, f.row);
    return seed;
  }
};

/// One field of a row on its way into a relation (Relation::AppendRow):
/// `i` for an int column, `d` for a double column, or the bytes of a string
/// column's value in `s`, which the append copies.
struct FieldView {
  int64_t i = 0;
  double d = 0.0;
  std::string_view s;
};

/// An in-memory instance of one relation: a bag of facts in insertion
/// order, stored column-wise in chunks.
class Relation {
 public:
  /// Rows per sealed chunk. Small enough that a chunk's working set stays
  /// cache-resident during scans, large enough to amortize the dictionary
  /// build at seal time.
  static constexpr size_t kDefaultChunkCapacity = 4096;

  explicit Relation(const RelationSchema* schema,
                    size_t chunk_capacity = kDefaultChunkCapacity);

  const RelationSchema& schema() const { return *schema_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  // --- Point access over columns ----------------------------------------

  /// Materializes row `i` as a tuple, the form Insert takes. Hot paths
  /// read SlotAt/ValueEquals/ForEachRun instead.
  Tuple row(size_t i) const;

  /// The value at (row, column) as a slot of the column's type: the number
  /// itself, or a pointer to the string in its segment, dictionary or the
  /// tail. No copy; valid until the relation is mutated.
  ValueSlot SlotAt(size_t row, size_t col) const {
    CQA_DCHECK(col < schema_->arity());
    size_t offset = 0;
    const size_t c = ChunkOf(row, &offset);
    if (c != kTailChunk) return chunks_[c].columns[col].SlotAt(offset);
    return TailSlot(offset, col);
  }

  /// Materializes the value at (row, column).
  Value ValueAt(size_t row, size_t col) const;

  /// Compares the value at (row, column) against `v` without
  /// materializing (no string copies).
  bool ValueEquals(size_t row, size_t col, const Value& v) const;

  /// True iff rows `a` and `b` agree on every column.
  bool RowsEqual(size_t a, size_t b) const;

  // --- Mutation ---------------------------------------------------------

  /// Appends one row, field `c` typed as column `c` (arity and types are
  /// the caller's to check: the .tbl loader parses into them). Seals the
  /// tail when it fills. Returns the new row index. The one way rows enter
  /// a relation.
  size_t AppendRow(std::span<const FieldView> row);

  /// Appends a tuple through AppendRow; aborts if the arity or a value
  /// type does not match the schema. Returns the new row index.
  size_t Insert(const Tuple& t);

  /// Seals the open tail into a (possibly short) chunk so its values gain
  /// an encoding and statistics. Called by the generators and tbl loader
  /// after bulk builds; appending afterwards opens a fresh tail.
  void SealTail();

  // --- Chunked columnar structure ---------------------------------------

  /// Number of sealed chunks (the open tail is not a chunk).
  size_t NumChunks() const { return chunks_.size(); }
  size_t chunk_rows(size_t c) const { return chunks_[c].rows; }
  size_t chunk_row0(size_t c) const { return chunks_[c].row0; }
  const Segment& chunk_segment(size_t c, size_t col) const {
    return chunks_[c].columns[col];
  }
  const ChunkColumnStats& chunk_stats(size_t c, size_t col) const {
    return chunks_[c].stats[col];
  }
  /// Rows living in the unsealed tail.
  size_t tail_rows() const { return tail_rows_; }

  // --- Segment iteration ------------------------------------------------

  /// Calls `fn(const ColumnRun&)` for each run of column `col`: sealed
  /// chunks in order, then the open tail (as a plain run).
  void ForEachRun(size_t col, const std::function<void(const ColumnRun&)>& fn)
      const;

  /// Enumerates rows whose columns at `positions` equal `key` pairwise, in
  /// ascending row order, skipping chunks whose statistics prove a
  /// mismatch. Dictionary columns compare codes (one dictionary probe per
  /// chunk). `fn` returns false to stop. Returns false iff stopped.
  bool ScanMatching(const std::vector<size_t>& positions, const Tuple& key,
                    const std::function<bool(size_t)>& fn) const;

  /// Chunks skipped by ScanMatching statistics since construction
  /// (bench/test observability).
  size_t chunks_pruned() const {
    return std::atomic_ref<size_t>(chunks_pruned_).load(
        std::memory_order_relaxed);
  }

  /// Heap footprint of all segments and tail buffers, in bytes.
  size_t MemoryBytes() const;

 private:
  struct Chunk {
    size_t row0 = 0;
    size_t rows = 0;
    std::vector<Segment> columns;        // One per attribute.
    std::vector<ChunkColumnStats> stats; // Parallel to columns.
  };

  /// Plain append buffer of one column (only the schema-typed vector is
  /// used).
  struct TailColumn {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
  };

  /// (chunk index or kTailChunk, offset within it) of a global row.
  static constexpr size_t kTailChunk = SIZE_MAX;
  size_t ChunkOf(size_t row, size_t* offset) const {
    CQA_DCHECK(row < num_rows_);
    const size_t sealed_rows = num_rows_ - tail_rows_;
    if (row >= sealed_rows) {
      *offset = row - sealed_rows;
      return kTailChunk;
    }
    if (regular_) {
      *offset = row % chunk_capacity_;
      return row / chunk_capacity_;
    }
    return SearchChunk(row, offset);
  }
  /// ChunkOf for a sealed row when the chunks are irregular.
  size_t SearchChunk(size_t row, size_t* offset) const;

  void SealTailChunk();
  ValueSlot TailSlot(size_t offset, size_t col) const;

  const RelationSchema* schema_;  // Owned by the Database's Schema.
  size_t chunk_capacity_;
  size_t num_rows_ = 0;
  size_t tail_rows_ = 0;
  std::vector<Chunk> chunks_;
  std::vector<TailColumn> tail_;
  // True while every sealed chunk but the last holds exactly
  // chunk_capacity_ rows, so row -> chunk is a division instead of a
  // binary search. A short last chunk (SealTail after a bulk build) keeps
  // it; sealing another chunk after a short one clears it for good.
  bool regular_ = true;
  // Bumped through std::atomic_ref: concurrent evaluations scan one
  // relation.
  mutable size_t chunks_pruned_ = 0;
};

}  // namespace cqa

#endif  // CQABENCH_STORAGE_RELATION_H_
