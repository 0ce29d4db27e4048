#include "storage/database.h"

#include "common/macros.h"
#include "obs/metrics.h"
#include "storage/block_index.h"
#include "storage/key_groups.h"

namespace cqa {

Database::Database(const Schema* schema) : schema_(schema) {
  CQA_CHECK(schema != nullptr);
  relations_.reserve(schema->NumRelations());
  for (size_t id = 0; id < schema->NumRelations(); ++id) {
    relations_.emplace_back(&schema->relation(id));
  }
}

Database::Database(Database&& other) noexcept : schema_(other.schema_) {
  // The moved-from database keeps no index over relations it lost.
  other.DropBlockIndex();
  relations_ = std::move(other.relations_);
}

const Relation& Database::relation(const std::string& name) const {
  return relations_[schema_->RelationId(name)];
}

FactRef Database::Insert(size_t relation_id, Tuple t) {
  CQA_CHECK(relation_id < relations_.size());
  DropBlockIndex();
  size_t row = relations_[relation_id].Insert(t);
  return FactRef{relation_id, row};
}

Relation& Database::AppendTarget(size_t relation_id) {
  CQA_CHECK(relation_id < relations_.size());
  DropBlockIndex();
  return relations_[relation_id];
}

FactRef Database::Insert(const std::string& relation, Tuple t) {
  return Insert(schema_->RelationId(relation), std::move(t));
}

size_t Database::NumFacts() const {
  size_t total = 0;
  for (const Relation& r : relations_) total += r.size();
  return total;
}

bool Database::SatisfiesKeys() const {
  return FindKeyViolations(/*limit=*/1).empty();
}

std::vector<KeyViolation> Database::FindKeyViolations(size_t limit) const {
  std::vector<KeyViolation> violations;
  for (size_t id = 0; id < relations_.size(); ++id) {
    const Relation& rel = relations_[id];
    if (!rel.schema().has_key()) continue;
    // Each row against the first row of its key's group. A NaN-keyed row
    // is a group of its own, so it never conflicts.
    const KeyGroups groups = KeyGroups::Build(
        rel, rel.schema().key_positions(), KeyGroups::NanRows::kOwnGroup);
    std::vector<uint32_t> first(rel.size());
    for (size_t g = 0; g < groups.NumGroups(); ++g) {
      for (uint32_t row : groups.group(g)) first[row] = groups.group(g)[0];
    }
    for (size_t row = 0; row < rel.size(); ++row) {
      if (first[row] == row || rel.RowsEqual(first[row], row)) continue;
      violations.push_back(
          KeyViolation{FactRef{id, first[row]}, FactRef{id, row}});
      if (limit != 0 && violations.size() >= limit) return violations;
    }
  }
  return violations;
}

void Database::SealStorage() {
  DropBlockIndex();
  for (Relation& r : relations_) r.SealTail();
}

std::shared_ptr<const BlockIndex> Database::block_index() const {
  std::shared_ptr<const BlockIndex> index;
  bool built = false;
  {
    MutexLock lock(block_index_mu_);
    if (block_index_ == nullptr) {
      block_index_ =
          std::make_shared<const BlockIndex>(BlockIndex::Build(*this));
      built = true;
    }
    index = block_index_;
  }
  // Counted outside the lock: the metric registry takes its own mutex.
  if (built) CQA_OBS_COUNT("storage.block_index_builds");
  return index;
}

void Database::DropBlockIndex() {
  MutexLock lock(block_index_mu_);
  block_index_.reset();
}

size_t Database::MemoryBytes() const {
  size_t bytes = 0;
  for (const Relation& r : relations_) bytes += r.MemoryBytes();
  return bytes;
}

Database Database::Clone() const {
  Database copy(schema_);
  copy.relations_ = relations_;
  return copy;
}

}  // namespace cqa
