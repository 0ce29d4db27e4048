// Conflict-block construction over the columnar storage plane: groups each
// relation's facts by primary-key value into blocks, the in-memory
// equivalent of the paper's Q_R view. Block ids and tuple ids follow first
// appearance in row order whichever way a relation is grouped, so synopses
// stay bit-for-bit reproducible. A key of int columns that chunk
// statistics and a full check prove strictly ascending needs no grouping
// at all (every block is a singleton); every other relation goes through
// the key-grouping kernel (storage/key_groups.h), whose lookup chains die
// with Build. The built index is immutable and laid out as CSR with 32-bit
// entries. A Database builds one lazily and shares it
// (Database::block_index); see docs/storage.md.
#ifndef CQABENCH_STORAGE_BLOCK_INDEX_H_
#define CQABENCH_STORAGE_BLOCK_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/database.h"

namespace cqa {

/// Per-row block annotation: the in-memory equivalent of the paper's
/// `Q_R` SQL view (Appendix C), which tags every tuple with
///   bid  = dense_rank()  OVER (ORDER BY key)          — block identifier
///   tid  = row_number()  OVER (PARTITION BY key ...)  — position in block
///   kcnt = count(*)      OVER (PARTITION BY key)      — block cardinality
/// Identifiers are assigned by first appearance instead of sort order; the
/// approximation schemes are oblivious to the concrete numbering (§5).
struct BlockAnnotation {
  size_t block_id = 0;
  size_t tuple_id = 0;
  size_t block_size = 0;
};

/// Blocks of one relation: facts grouped by key value. Relations are
/// limited to 2^32 - 1 rows (Build checks).
class RelationBlockIndex {
 public:
  /// Builds the index over `rel`. A relation without a key yields one
  /// block per distinct whole tuple (its facts are never in conflict).
  static RelationBlockIndex Build(const Relation& rel);

  /// The positions blocks group by: the key, or every position when the
  /// relation has none.
  static std::vector<size_t> KeyPositions(const RelationSchema& rs);

  size_t NumBlocks() const { return offsets_.size() - 1; }

  /// Row indexes of block `bid`, in tuple-id order.
  std::span<const uint32_t> block(size_t bid) const {
    return {rows_.data() + offsets_[bid], rows_.data() + offsets_[bid + 1]};
  }

  BlockAnnotation annotation(size_t row) const {
    const RowTag& tag = tags_[row];
    return BlockAnnotation{
        tag.block_id, tag.tuple_id,
        offsets_[tag.block_id + 1] - offsets_[tag.block_id]};
  }

  /// Number of non-singleton blocks (blocks witnessing inconsistency).
  size_t NumConflictingBlocks() const { return conflicting_blocks_; }

 private:
  struct RowTag {
    uint32_t block_id;
    uint32_t tuple_id;
  };

  RelationBlockIndex() = default;

  // Block b holds rows_[offsets_[b], offsets_[b + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;
  std::vector<RowTag> tags_;  // Per row.
  size_t conflicting_blocks_ = 0;
};

/// Block structure of a whole database: one RelationBlockIndex per relation.
class BlockIndex {
 public:
  /// Builds indexes for every relation of `db`. Library code reads the
  /// database's shared index (Database::block_index) instead.
  static BlockIndex Build(const Database& db);

  const RelationBlockIndex& relation(size_t relation_id) const {
    return per_relation_[relation_id];
  }

  size_t NumRelations() const { return per_relation_.size(); }

  /// Total number of blocks across relations.
  size_t TotalBlocks() const;

  /// Fraction of facts that live in a non-singleton block.
  double InconsistencyRatio(const Database& db) const;

 private:
  std::vector<RelationBlockIndex> per_relation_;
};

}  // namespace cqa

#endif  // CQABENCH_STORAGE_BLOCK_INDEX_H_
