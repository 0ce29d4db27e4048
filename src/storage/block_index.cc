#include "storage/block_index.h"

#include <numeric>

#include "common/macros.h"
#include "storage/key_groups.h"

namespace cqa {

namespace {

/// Whether every column of `key` is an int and the rows strictly ascend
/// on them, compared in order: then every key is distinct and needs no
/// grouping. Chunk statistics of the first column reject most other
/// relations before a value is read: a dictionary chunk that repeats a
/// value, or a chunk whose range does not start above the last one's. With
/// more columns, later ones break ties, so only a range that starts below
/// the last one's rejects.
bool KeysStrictlyAscending(const Relation& rel,
                           const std::vector<size_t>& key) {
  for (size_t col : key) {
    if (rel.schema().attribute(col).type != ValueType::kInt) return false;
  }
  if (key.empty()) return false;
  const bool ties = key.size() > 1;
  for (size_t c = 0; c < rel.NumChunks(); ++c) {
    const ChunkColumnStats& stats = rel.chunk_stats(c, key[0]);
    if (!ties && stats.distinct != 0 && stats.distinct < rel.chunk_rows(c)) {
      return false;
    }
    if (c == 0) continue;
    const Value& last = rel.chunk_stats(c - 1, key[0]).max;
    if (ties ? stats.min < last : !(last < stats.min)) return false;
  }
  std::vector<std::vector<int64_t>> values(key.size());
  for (size_t k = 0; k < key.size(); ++k) {
    values[k].reserve(rel.size());
    rel.ForEachRun(key[k], [&](const ColumnRun& run) {
      for (size_t i = 0; i < run.length; ++i) {
        values[k].push_back(run.SlotAt(i).i);
      }
    });
  }
  for (size_t row = 1; row < rel.size(); ++row) {
    size_t k = 0;
    while (k < key.size() && values[k][row - 1] == values[k][row]) ++k;
    if (k == key.size() || values[k][row - 1] > values[k][row]) return false;
  }
  return true;
}

}  // namespace

std::vector<size_t> RelationBlockIndex::KeyPositions(
    const RelationSchema& rs) {
  if (rs.has_key()) return rs.key_positions();
  std::vector<size_t> all(rs.arity());
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

RelationBlockIndex RelationBlockIndex::Build(const Relation& rel) {
  CQA_CHECK(rel.size() < KeyGroups::kNone);
  RelationBlockIndex index;
  std::vector<size_t> key = KeyPositions(rel.schema());
  if (KeysStrictlyAscending(rel, key)) {
    // Block b is row b alone.
    index.offsets_.resize(rel.size() + 1);
    std::iota(index.offsets_.begin(), index.offsets_.end(), 0u);
    index.rows_.assign(index.offsets_.begin(), index.offsets_.end() - 1);
  } else {
    KeyGroups::Build(rel, std::move(key), KeyGroups::NanRows::kOwnGroup)
        .MoveCsr(&index.offsets_, &index.rows_);
  }
  index.tags_.resize(rel.size());
  for (uint32_t bid = 0; bid < index.NumBlocks(); ++bid) {
    const std::span<const uint32_t> rows = index.block(bid);
    if (rows.size() > 1) ++index.conflicting_blocks_;
    for (uint32_t tid = 0; tid < rows.size(); ++tid) {
      index.tags_[rows[tid]] = RowTag{bid, tid};
    }
  }
  return index;
}

BlockIndex BlockIndex::Build(const Database& db) {
  BlockIndex index;
  index.per_relation_.reserve(db.NumRelations());
  for (size_t id = 0; id < db.NumRelations(); ++id) {
    index.per_relation_.push_back(RelationBlockIndex::Build(db.relation(id)));
  }
  return index;
}

size_t BlockIndex::TotalBlocks() const {
  size_t total = 0;
  for (const RelationBlockIndex& r : per_relation_) total += r.NumBlocks();
  return total;
}

double BlockIndex::InconsistencyRatio(const Database& db) const {
  size_t conflicting_facts = 0;
  size_t total_facts = 0;
  for (size_t id = 0; id < per_relation_.size(); ++id) {
    const RelationBlockIndex& rbi = per_relation_[id];
    total_facts += db.relation(id).size();
    for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
      const size_t size = rbi.block(bid).size();
      if (size > 1) conflicting_facts += size;
    }
  }
  if (total_facts == 0) return 0.0;
  return static_cast<double>(conflicting_facts) /
         static_cast<double>(total_facts);
}

}  // namespace cqa
