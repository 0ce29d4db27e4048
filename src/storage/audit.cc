#include "storage/audit.h"

#include <cstdarg>
#include <cstdio>
#include <unordered_set>

namespace cqa::audit {

namespace {

/// Writes the printf-formatted diagnostic to *why (when non-null) and
/// returns false. The format attribute has the compiler check every
/// message against its arguments.
__attribute__((format(printf, 2, 3))) bool Fail(std::string* why,
                                                const char* fmt, ...) {
  if (why != nullptr) {
    char buf[192];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    *why = buf;
  }
  return false;
}

}  // namespace

bool CheckBlockPartition(const Database& db, const BlockIndex& index,
                         std::string* why) {
  if (index.NumRelations() != db.NumRelations()) {
    return Fail(why, "index covers %zu relations, database has %zu",
                index.NumRelations(), db.NumRelations());
  }
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const Relation& rel = db.relation(rid);
    const RelationBlockIndex& rbi = index.relation(rid);
    const std::vector<size_t> key =
        RelationBlockIndex::KeyPositions(rel.schema());
    // Every row of the relation must be claimed by exactly one block.
    std::vector<char> seen(rel.size(), 0);
    size_t covered = 0;
    // One entry per block; Value equality keeps ±0 one key and every NaN
    // a key of its own.
    std::unordered_set<Tuple, TupleHash> block_keys;
    for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
      const std::span<const uint32_t> rows = rbi.block(bid);
      if (rows.empty()) {
        return Fail(why, "relation %zu: block %zu is empty", rid, bid);
      }
      if (bid > 0 && rows[0] <= rbi.block(bid - 1)[0]) {
        return Fail(why, "relation %zu: block %zu opens at row %zu, not "
                         "after the first row of block %zu",
                    rid, bid, size_t{rows[0]}, bid - 1);
      }
      for (size_t tid = 0; tid < rows.size(); ++tid) {
        size_t row = rows[tid];
        if (row >= rel.size()) {
          return Fail(why, "relation %zu: block %zu references row %zu "
                           "past the relation",
                      rid, bid, row);
        }
        if (seen[row] != 0) {
          return Fail(why, "relation %zu: row %zu appears in two blocks "
                           "(second: %zu)",
                      rid, row, bid);
        }
        seen[row] = 1;
        ++covered;
        const BlockAnnotation ann = rbi.annotation(row);
        if (ann.block_id != bid || ann.tuple_id != tid ||
            ann.block_size != rows.size()) {
          return Fail(why, "relation %zu: row %zu has annotation "
                           "inconsistent with block %zu",
                      rid, row, bid);
        }
        if (tid == 0) continue;
        if (row <= rows[tid - 1]) {
          return Fail(why, "relation %zu: block %zu gives row %zu a later "
                           "tid than row %zu",
                      rid, bid, row, size_t{rows[tid - 1]});
        }
        for (size_t pos : key) {
          if (!SlotEquals(rel.schema().attribute(pos).type,
                          rel.SlotAt(rows[0], pos), rel.SlotAt(row, pos))) {
            return Fail(why, "relation %zu: row %zu differs on the key from "
                             "row %zu, the first of block %zu",
                        rid, row, size_t{rows[0]}, bid);
          }
        }
      }
      Tuple block_key;
      for (size_t pos : key) block_key.push_back(rel.ValueAt(rows[0], pos));
      if (!block_keys.insert(std::move(block_key)).second) {
        return Fail(why, "relation %zu: block %zu has the key of an earlier "
                         "block",
                    rid, bid);
      }
    }
    if (covered != rel.size()) {
      return Fail(why, "relation %zu: blocks cover %zu of %zu rows", rid,
                  covered, rel.size());
    }
  }
  return true;
}

bool CheckRepairSelection(const Database& db, const BlockIndex& index,
                          const std::vector<FactRef>& selection,
                          std::string* why) {
  size_t pos = 0;
  for (size_t rid = 0; rid < index.NumRelations(); ++rid) {
    const RelationBlockIndex& rbi = index.relation(rid);
    for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
      if (pos >= selection.size()) {
        return Fail(why, "selection has %zu facts, fewer than the %zu "
                         "blocks of the database",
                    selection.size(), index.TotalBlocks());
      }
      const FactRef& f = selection[pos];
      if (f.relation_id != rid) {
        return Fail(why, "selection entry %zu names relation %zu, "
                         "expected %zu",
                    pos, f.relation_id, rid);
      }
      if (f.relation_id >= db.NumRelations() ||
          f.row >= db.relation(f.relation_id).size()) {
        return Fail(why, "selection entry %zu references row %zu past "
                         "relation %zu",
                    pos, f.row, f.relation_id);
      }
      const BlockAnnotation ann = rbi.annotation(f.row);
      if (ann.block_id != bid) {
        return Fail(why, "selection entry %zu picks a row of block %zu, "
                         "expected block %zu",
                    pos, ann.block_id, bid);
      }
      ++pos;
    }
  }
  if (pos != selection.size()) {
    return Fail(why, "selection has %zu facts, more than the %zu blocks "
                     "of the database",
                selection.size(), pos);
  }
  return true;
}

bool CheckColumnarStorage(const Database& db, std::string* why) {
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const Relation& rel = db.relation(rid);
    size_t arity = rel.schema().arity();
    size_t expected_row0 = 0;
    for (size_t c = 0; c < rel.NumChunks(); ++c) {
      if (rel.chunk_row0(c) != expected_row0) {
        return Fail(why, "relation %zu: chunk %zu starts at row %zu, "
                         "leaving a gap",
                    rid, c, rel.chunk_row0(c));
      }
      size_t rows = rel.chunk_rows(c);
      if (rows == 0) {
        return Fail(why, "relation %zu: chunk %zu is empty", rid, c);
      }
      expected_row0 += rows;
      for (size_t col = 0; col < arity; ++col) {
        const Segment& segment = rel.chunk_segment(c, col);
        if (segment.size() != rows) {
          return Fail(why, "relation %zu: chunk %zu column %zu segment "
                           "holds %zu values, expected the chunk's %zu rows",
                      rid, c, col, segment.size(), rows);
        }
        if (segment.type() != rel.schema().attribute(col).type) {
          return Fail(why, "relation %zu: chunk %zu column %zu type "
                           "mismatches the schema",
                      rid, c, col);
        }
        const ColumnRun run = segment.Run(rel.chunk_row0(c));
        if (segment.encoding() == SegmentEncoding::kDictionary) {
          size_t ds = run.dict_size;
          if (ds == 0 || ds > rows) {
            return Fail(why, "relation %zu: chunk %zu column %zu dictionary "
                             "has %zu entries for %zu rows",
                        rid, c, col, ds, rows);
          }
          for (size_t e = 1; e < ds; ++e) {
            bool sorted = run.int_dict != nullptr
                              ? run.int_dict[e - 1] < run.int_dict[e]
                              : run.string_dict[e - 1] < run.string_dict[e];
            if (!sorted) {
              return Fail(why, "relation %zu: chunk %zu column %zu "
                               "dictionary entry %zu out of order",
                          rid, c, col, e);
            }
          }
          for (size_t i = 0; i < rows; ++i) {
            if (run.codes[i] >= ds) {
              return Fail(why, "relation %zu: chunk %zu column %zu code at "
                               "offset %zu exceeds the dictionary",
                          rid, c, col, i);
            }
          }
        }
        const ChunkColumnStats& stats = rel.chunk_stats(c, col);
        if (!stats.valid) {
          return Fail(why, "relation %zu: chunk %zu column %zu has no "
                           "statistics",
                      rid, c, col);
        }
        if (segment.encoding() == SegmentEncoding::kDictionary &&
            stats.distinct != segment.dict_size()) {
          return Fail(why, "relation %zu: chunk %zu column %zu distinct "
                           "count disagrees with the dictionary",
                      rid, c, col);
        }
        if (stats.has_histogram) {
          size_t total = 0;
          for (size_t b = 0; b < ChunkColumnStats::kHistogramBins; ++b) {
            total += stats.bins[b];
          }
          if (total != rows) {
            return Fail(why, "relation %zu: chunk %zu column %zu histogram "
                             "counts %zu values, expected the chunk's %zu "
                             "rows",
                        rid, c, col, total, rows);
          }
        }
        // The one-sided pruning contract: statistics must never prove the
        // absence of a value the chunk actually holds.
        for (size_t i = 0; i < rows; ++i) {
          Value v = segment.GetValue(i);
          if (v < stats.min || stats.max < v ||
              !stats.MayContainEqual(v)) {
            return Fail(why, "relation %zu: chunk %zu column %zu statistics "
                             "reject a stored value at offset %zu",
                        rid, c, col, i);
          }
        }
      }
    }
    if (expected_row0 + rel.tail_rows() != rel.size()) {
      return Fail(why, "relation %zu: chunks and tail cover %zu of %zu rows",
                  rid, expected_row0 + rel.tail_rows(), rel.size());
    }
  }
  return true;
}

}  // namespace cqa::audit
