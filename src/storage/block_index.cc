#include "storage/block_index.h"

#include <unordered_map>

#include "common/macros.h"

namespace cqa {

namespace {

struct IntPairHash {
  size_t operator()(const std::pair<int64_t, int64_t>& p) const {
    size_t seed = std::hash<int64_t>()(p.first);
    HashCombine(seed, std::hash<int64_t>()(p.second));
    return seed;
  }
};

/// Flattens an int column (decoding dictionary chunks) into one vector.
std::vector<int64_t> DecodeIntColumn(const Relation& rel, size_t col) {
  std::vector<int64_t> out;
  out.reserve(rel.size());
  rel.ForEachRun(col, [&](const ColumnRun& run) {
    if (run.encoding == SegmentEncoding::kDictionary) {
      for (size_t i = 0; i < run.length; ++i) {
        out.push_back(run.int_dict[run.codes[i]]);
      }
    } else {
      out.insert(out.end(), run.ints, run.ints + run.length);
    }
  });
  return out;
}

/// Chunk-statistics prefilter for the sorted-key fast path: can the key
/// column still be strictly ascending? Rejects without touching values
/// when a dictionary chunk holds duplicates (distinct < rows) or when
/// consecutive chunk [min, max] ranges fail to increase. `weak_bounds`
/// allows equal boundary values (the int-pair path, where ties break on
/// the second column).
bool ChunkBoundsAscending(const Relation& rel, size_t col, bool weak_bounds) {
  for (size_t c = 0; c < rel.NumChunks(); ++c) {
    const ChunkColumnStats& stats = rel.chunk_stats(c, col);
    if (!stats.valid) continue;
    if (!weak_bounds && stats.distinct != 0 &&
        stats.distinct < rel.chunk_rows(c)) {
      return false;
    }
    if (c > 0) {
      const ChunkColumnStats& prev = rel.chunk_stats(c - 1, col);
      if (prev.valid) {
        bool ok = weak_bounds ? !(stats.min < prev.max)
                              : prev.max < stats.min;
        if (!ok) return false;
      }
    }
  }
  return true;
}

bool StrictlyAscending(const std::vector<int64_t>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

}  // namespace

RelationBlockIndex RelationBlockIndex::Build(const Relation& rel) {
  CQA_CHECK(rel.size() < (uint64_t{1} << 32));
  RelationBlockIndex index;
  index.tags_.resize(rel.size());
  // Blocks number at most one per row; Finish trims the excess.
  index.offsets_.reserve(rel.size() + 1);

  const RelationSchema& rs = rel.schema();
  const std::vector<size_t>& kp = rs.key_positions();
  auto is_int = [&](size_t pos) {
    return rs.attribute(pos).type == ValueType::kInt;
  };
  if (rs.has_key() && kp.size() == 1 && is_int(kp[0])) {
    index.GroupIntKey(rel, kp[0]);
  } else if (rs.has_key() && kp.size() == 1 &&
             rs.attribute(kp[0]).type == ValueType::kString) {
    index.GroupStringKey(rel, kp[0]);
  } else if (rs.has_key() && kp.size() == 2 && is_int(kp[0]) &&
             is_int(kp[1])) {
    index.GroupIntPairKey(rel, kp[0], kp[1]);
  } else {
    index.GroupTupleKey(rel);
  }
  index.Finish();
  return index;
}

void RelationBlockIndex::Append(size_t row, size_t bid) {
  if (bid == offsets_.size()) offsets_.push_back(0);
  tags_[row] = RowTag{static_cast<uint32_t>(bid), offsets_[bid]++};
}

void RelationBlockIndex::GroupIntKey(const Relation& rel, size_t col) {
  std::vector<int64_t> keys = DecodeIntColumn(rel, col);
  // Sorted-distinct fast path: when chunk statistics allow it and the
  // decoded column verifies strictly ascending, every key is distinct —
  // every block is a singleton with block id == row index, and grouping
  // needs no hash table at all.
  if (ChunkBoundsAscending(rel, col, /*weak_bounds=*/false) &&
      StrictlyAscending(keys)) {
    for (size_t row = 0; row < keys.size(); ++row) Append(row, row);
    return;
  }
  std::unordered_map<int64_t, size_t> block_of;
  block_of.reserve(keys.size());
  for (size_t row = 0; row < keys.size(); ++row) {
    Append(row, block_of.emplace(keys[row], offsets_.size()).first->second);
  }
}

void RelationBlockIndex::GroupStringKey(const Relation& rel, size_t col) {
  std::unordered_map<std::string, size_t> block_of;
  block_of.reserve(rel.size());
  std::vector<size_t> code_block;  // Per-chunk code -> block id cache.
  rel.ForEachRun(col, [&](const ColumnRun& run) {
    if (run.encoding == SegmentEncoding::kDictionary) {
      // One string hash per distinct code per chunk; repeats hit the
      // interning cache instead of rehashing the string.
      code_block.assign(run.dict_size, SIZE_MAX);
      for (size_t i = 0; i < run.length; ++i) {
        const uint32_t code = run.codes[i];
        size_t& cached = code_block[code];
        if (cached == SIZE_MAX) {
          cached =
              block_of.emplace(run.string_dict[code], offsets_.size())
                  .first->second;
        }
        Append(run.row0 + i, cached);
      }
    } else {
      for (size_t i = 0; i < run.length; ++i) {
        Append(run.row0 + i,
               block_of.emplace(run.strings[i], offsets_.size())
                   .first->second);
      }
    }
  });
}

void RelationBlockIndex::GroupIntPairKey(const Relation& rel, size_t col_a,
                                         size_t col_b) {
  std::vector<int64_t> a = DecodeIntColumn(rel, col_a);
  std::vector<int64_t> b = DecodeIntColumn(rel, col_b);
  CQA_DCHECK(a.size() == b.size());
  // Sorted fast path under the lexicographic order: the first column's
  // chunk bounds must be non-decreasing, and the pairs strictly ascend.
  if (ChunkBoundsAscending(rel, col_a, /*weak_bounds=*/true)) {
    bool ascending = true;
    for (size_t i = 1; i < a.size() && ascending; ++i) {
      ascending = a[i - 1] < a[i] || (a[i - 1] == a[i] && b[i - 1] < b[i]);
    }
    if (ascending) {
      for (size_t row = 0; row < a.size(); ++row) Append(row, row);
      return;
    }
  }
  std::unordered_map<std::pair<int64_t, int64_t>, size_t, IntPairHash>
      block_of;
  block_of.reserve(a.size());
  for (size_t row = 0; row < a.size(); ++row) {
    Append(row, block_of.emplace(std::make_pair(a[row], b[row]),
                                 offsets_.size())
                    .first->second);
  }
}

void RelationBlockIndex::GroupTupleKey(const Relation& rel) {
  std::unordered_map<Tuple, size_t, TupleHash> block_of;
  block_of.reserve(rel.size());
  for (size_t row = 0; row < rel.size(); ++row) {
    Append(row, block_of.emplace(rel.KeyOf(row), offsets_.size())
                    .first->second);
  }
}

void RelationBlockIndex::Finish() {
  uint32_t start = 0;
  for (uint32_t& entry : offsets_) {
    const uint32_t count = entry;
    if (count > 1) ++conflicting_blocks_;
    entry = start;
    start += count;
  }
  offsets_.push_back(start);
  offsets_.shrink_to_fit();
  rows_.resize(start);
  for (size_t row = 0; row < tags_.size(); ++row) {
    rows_[offsets_[tags_[row].block_id] + tags_[row].tuple_id] =
        static_cast<uint32_t>(row);
  }
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
