// The storage plane's one key-grouping kernel: a relation's rows
// partitioned by their values at a set of positions, the in-memory form of
// the paper's `PARTITION BY key` (Appendix C). The block index
// (storage/block_index.h) groups by the primary key, the evaluator's join
// index (RelationIndex, query/evaluator.h) by the positions a lookup binds,
// and Database::FindKeyViolations by the key again.
#ifndef CQABENCH_STORAGE_KEY_GROUPS_H_
#define CQABENCH_STORAGE_KEY_GROUPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/relation.h"

namespace cqa {

/// Rows of one relation grouped by their values at fixed positions, under
/// Value equality: ±0 are one key, and NaN equals nothing, so a row whose
/// key holds a NaN shares a group with no other row. Group ids are dense
/// and follow each group's first row; a group's rows ascend. Both are laid
/// out as CSR with 32-bit entries.
///
/// Build reads the key columns run by run into typed slots, then numbers
/// the groups in row order through flat separate chaining: a head per
/// bucket over a prime bucket count, and per group a chain link and a
/// 32-bit tag. Int columns fold as h·1000003 + v with no finalizer, so
/// ascending keys fill ascending buckets. A row is compared with a group's
/// key only on a tag match. While Build runs, each group keeps its key's
/// slots and hash, so neither comparing nor growing reads the relation;
/// afterwards only the CSR and the chains stay, and Find compares against
/// the group's first row in the relation, which must outlive the groups
/// and not grow.
class KeyGroups {
 public:
  /// What becomes of a row whose key holds a NaN.
  enum class NanRows {
    kOwnGroup,  // A group of its own, which Find never returns (a block).
    kLeftOut,   // No group at all (a join key, which matches nothing).
  };

  static constexpr uint32_t kNone = UINT32_MAX;

  /// Groups the rows of `rel`, of which there must be fewer than kNone, by
  /// their values at `positions`.
  static KeyGroups Build(const Relation& rel, std::vector<size_t> positions,
                         NanRows nan_rows);

  size_t NumGroups() const { return offsets_.size() - 1; }

  /// Rows of group `g`, ascending.
  std::span<const uint32_t> group(size_t g) const {
    return {rows_.data() + offsets_[g], rows_.data() + offsets_[g + 1]};
  }

  /// The group whose key equals `key`, one slot per position typed as
  /// that column, or kNone. A key holding a NaN finds none.
  uint32_t Find(const ValueSlot* key) const;

  const std::vector<size_t>& positions() const { return positions_; }
  const std::vector<ValueType>& types() const { return types_; }

  /// Moves the CSR out, for a caller that keeps no lookup.
  void MoveCsr(std::vector<uint32_t>* offsets,
               std::vector<uint32_t>* rows) && {
    *offsets = std::move(offsets_);
    *rows = std::move(rows_);
  }

 private:
  struct Link {
    uint32_t next;  // Next group in the bucket's chain, or kNone.
    uint32_t tag;
  };

  /// Empties the chains into the first prime bucket count above `groups`.
  void ResetBuckets(size_t groups);
  uint32_t Bucket(uint64_t hash) const;
  uint64_t HashKey(const ValueSlot* key) const;
  bool HasNaN(const ValueSlot* key) const;
  bool KeysEqual(const ValueSlot* a, const ValueSlot* b) const;

  const Relation* rel_ = nullptr;
  std::vector<size_t> positions_;
  std::vector<ValueType> types_;   // Column type per position.
  std::vector<uint32_t> head_;     // Per bucket: a group, or kNone.
  uint64_t bucket_magic_ = 0;      // 2^64 / head_.size(), rounded up.
  std::vector<Link> links_;        // Per group.
  std::vector<uint32_t> offsets_;  // Group g: rows_[offsets_[g], [g + 1]).
  std::vector<uint32_t> rows_;
};

}  // namespace cqa

#endif  // CQABENCH_STORAGE_KEY_GROUPS_H_
