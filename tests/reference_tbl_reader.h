#ifndef CQABENCH_TESTS_REFERENCE_TBL_READER_H_
#define CQABENCH_TESTS_REFERENCE_TBL_READER_H_

// A test-local reference for ReadTblFile: the row-at-a-time loop the
// streaming loader replaced. It reads with std::getline, cuts each field
// out with substr, parses numbers with strtoll/strtod (no range check),
// builds a Tuple and inserts it through Database::Insert. The differential
// test loads the same files through both and compares the storage they
// build with DiffRelationStorage, which the fuzz driver also uses for its
// write-then-read round trip.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "storage/chunk_stats.h"
#include "storage/database.h"

namespace cqa::testing {

inline bool ReferenceFail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

inline bool ReferenceParseField(const std::string& field, ValueType type,
                                Value* out, std::string* error) {
  switch (type) {
    case ValueType::kInt: {
      char* end = nullptr;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') {
        return ReferenceFail(error, "bad int field: " + field);
      }
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return ReferenceFail(error, "bad double field: " + field);
      }
      *out = Value(v);
      return true;
    }
    case ValueType::kString:
      *out = Value(field);
      return true;
  }
  return ReferenceFail(error, "unknown value type");
}

/// Appends the facts of `path` to the named relation of *db, line by
/// line, and seals the database's storage on success.
inline bool ReferenceReadTblFile(Database* db,
                                 const std::string& relation_name,
                                 const std::string& path,
                                 std::string* error) {
  auto relation_id = db->schema().FindRelation(relation_name);
  if (!relation_id.has_value()) {
    return ReferenceFail(error, "unknown relation " + relation_name);
  }
  const RelationSchema& schema = db->schema().relation(*relation_id);

  std::ifstream in(path);
  if (!in) return ReferenceFail(error, "cannot open " + path);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    Tuple tuple;
    tuple.reserve(schema.arity());
    size_t start = 0;
    while (start < line.size()) {
      size_t bar = line.find('|', start);
      if (bar == std::string::npos) {
        return ReferenceFail(error, path + ":" + std::to_string(line_number) +
                                        ": unterminated field");
      }
      if (tuple.size() >= schema.arity()) {
        return ReferenceFail(error, path + ":" + std::to_string(line_number) +
                                        ": too many fields");
      }
      Value v;
      if (!ReferenceParseField(line.substr(start, bar - start),
                               schema.attribute(tuple.size()).type, &v,
                               error)) {
        return false;
      }
      tuple.push_back(std::move(v));
      start = bar + 1;
    }
    if (tuple.size() != schema.arity()) {
      return ReferenceFail(
          error, path + ":" + std::to_string(line_number) + ": expected " +
                     std::to_string(schema.arity()) + " fields, got " +
                     std::to_string(tuple.size()));
    }
    db->Insert(*relation_id, std::move(tuple));
  }
  db->SealStorage();
  return true;
}

/// Value equality that tells doubles apart by their bits (NaN payloads and
/// signs, ±0).
inline bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.AsDouble(), y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

/// The first difference between the storage of `a` and `b`, or "" when
/// there is none: row counts, chunk layout, each chunk's encoding,
/// dictionary, codes and statistics, every slot bit for bit, the tail and
/// MemoryBytes.
inline std::string DiffRelationStorage(const Relation& a, const Relation& b) {
  const std::string name = a.schema().name();
  if (a.size() != b.size()) {
    return name + ": " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " rows";
  }
  if (a.NumChunks() != b.NumChunks() || a.tail_rows() != b.tail_rows()) {
    return name + ": different chunk layout";
  }
  const size_t arity = a.schema().arity();
  for (size_t c = 0; c < a.NumChunks(); ++c) {
    const std::string at = name + " chunk " + std::to_string(c);
    if (a.chunk_row0(c) != b.chunk_row0(c) ||
        a.chunk_rows(c) != b.chunk_rows(c)) {
      return at + ": different rows";
    }
    for (size_t col = 0; col < arity; ++col) {
      const std::string where = at + " column " + std::to_string(col);
      const Segment& sa = a.chunk_segment(c, col);
      const Segment& sb = b.chunk_segment(c, col);
      if (sa.encoding() != sb.encoding() || sa.size() != sb.size() ||
          sa.dict_size() != sb.dict_size()) {
        return where + ": different encoding";
      }
      const ColumnRun ra = sa.Run(0), rb = sb.Run(0);
      if (sa.encoding() == SegmentEncoding::kDictionary) {
        for (size_t e = 0; e < ra.dict_size; ++e) {
          const bool same = ra.int_dict != nullptr
                                ? ra.int_dict[e] == rb.int_dict[e]
                                : ra.string_dict[e] == rb.string_dict[e];
          if (!same) return where + ": different dictionary";
        }
        if (std::memcmp(ra.codes, rb.codes, ra.length * sizeof(uint32_t)) !=
            0) {
          return where + ": different codes";
        }
      }
      const ChunkColumnStats& ta = a.chunk_stats(c, col);
      const ChunkColumnStats& tb = b.chunk_stats(c, col);
      if (ta.valid != tb.valid || !SameBits(ta.min, tb.min) ||
          !SameBits(ta.max, tb.max) || ta.distinct != tb.distinct ||
          ta.has_histogram != tb.has_histogram ||
          std::memcmp(ta.bins, tb.bins, sizeof(ta.bins)) != 0) {
        return where + ": different statistics";
      }
    }
  }
  for (size_t row = 0; row < a.size(); ++row) {
    for (size_t col = 0; col < arity; ++col) {
      const ValueSlot x = a.SlotAt(row, col), y = b.SlotAt(row, col);
      const bool same = a.schema().attribute(col).type == ValueType::kString
                            ? *x.s == *y.s
                            : std::memcmp(&x, &y, sizeof(x)) == 0;
      if (!same) {
        return name + " row " + std::to_string(row) + " column " +
               std::to_string(col) + ": different value";
      }
    }
  }
  if (a.MemoryBytes() != b.MemoryBytes()) {
    return name + ": MemoryBytes " + std::to_string(a.MemoryBytes()) +
           " vs " + std::to_string(b.MemoryBytes());
  }
  return "";
}

}  // namespace cqa::testing

#endif  // CQABENCH_TESTS_REFERENCE_TBL_READER_H_
