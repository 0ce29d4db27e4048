// An in-memory database instance: one chunked-columnar Relation per
// relation of a shared Schema, plus key-violation detection, storage
// sealing (SealStorage), the deep Clone the noise generator extends, and
// the lazily built block index every consumer shares (block_index).
#ifndef CQABENCH_STORAGE_DATABASE_H_
#define CQABENCH_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace cqa {

class BlockIndex;

/// A key-constraint violation: two facts of the same relation that agree on
/// the key but differ elsewhere.
struct KeyViolation {
  FactRef first;
  FactRef second;
};

/// An in-memory relational database instance over a fixed Schema.
///
/// The schema (including the set of primary keys Σ) is shared, not owned:
/// the paper's test scenarios evaluate many databases over one schema.
class Database {
 public:
  explicit Database(const Schema* schema);
  /// Moves the relations; the new database starts with no block index.
  Database(Database&& other) noexcept;

  const Schema& schema() const { return *schema_; }
  size_t NumRelations() const { return relations_.size(); }

  // Relations are read-only from outside: Insert, AppendTarget and
  // SealStorage are the only mutators, and each drops the cached block
  // index, so it cannot go stale unseen.
  const Relation& relation(size_t id) const { return relations_[id]; }
  const Relation& relation(const std::string& name) const;

  /// Appends a fact to relation `relation_id`.
  FactRef Insert(size_t relation_id, Tuple t);
  FactRef Insert(const std::string& relation, Tuple t);

  /// Relation `relation_id`, to append rows to in bulk
  /// (Relation::AppendRow): the block index is dropped once here instead
  /// of once per row as Insert does. Nothing may call block_index() until
  /// the appends are done.
  Relation& AppendTarget(size_t relation_id);

  /// Total number of facts across relations.
  size_t NumFacts() const;

  /// Materializes the fact's tuple from its relation's column segments.
  Tuple FactTuple(const FactRef& f) const {
    return relations_[f.relation_id].row(f.row);
  }

  /// Seals every relation's open tail (see Relation::SealTail) so freshly
  /// built instances carry encodings and chunk statistics end to end.
  void SealStorage();

  /// The block index of the current contents. The first call builds it
  /// (concurrent first callers wait for that one build); later calls
  /// return the same immutable object until Insert or SealStorage drops
  /// it. Holders keep a dropped index alive. Thread-safe.
  std::shared_ptr<const BlockIndex> block_index() const
      CQA_EXCLUDES(block_index_mu_);

  /// Heap footprint of all relations' storage, in bytes.
  size_t MemoryBytes() const;

  /// True iff the instance satisfies every primary key of the schema.
  bool SatisfiesKeys() const;

  /// All key violations, at most `limit` (0 = unlimited). Each conflicting
  /// block of size k reports k-1 violations (each later fact against the
  /// first fact of its block).
  std::vector<KeyViolation> FindKeyViolations(size_t limit = 0) const;

  /// Deep copy of the relations, without the block index (used by the
  /// noise generator, which extends a consistent base instance into
  /// several inconsistent variants).
  Database Clone() const;

 private:
  void DropBlockIndex() CQA_EXCLUDES(block_index_mu_);

  const Schema* schema_;
  std::vector<Relation> relations_;
  // Leaf lock: held across one index build, which takes no other lock.
  mutable Mutex block_index_mu_;
  mutable std::shared_ptr<const BlockIndex> block_index_
      CQA_GUARDED_BY(block_index_mu_);
};

}  // namespace cqa

#endif  // CQABENCH_STORAGE_DATABASE_H_
