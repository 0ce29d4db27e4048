#include "storage/tbl_io.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cqa {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Emits the value at run-local index `i` of `run` without materializing a
/// Value (dictionary runs read the dict entry in place).
bool AppendRunField(const ColumnRun& run, size_t i, std::string* line,
                    std::string* error) {
  switch (run.type) {
    case ValueType::kInt: {
      int64_t v = run.encoding == SegmentEncoding::kDictionary
                      ? run.int_dict[run.codes[i]]
                      : run.ints[i];
      line->append(std::to_string(v));
      break;
    }
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", run.doubles[i]);
      line->append(buf);
      break;
    }
    case ValueType::kString: {
      const std::string& s = run.encoding == SegmentEncoding::kDictionary
                                 ? run.string_dict[run.codes[i]]
                                 : run.strings[i];
      if (s.find('|') != std::string::npos ||
          s.find('\n') != std::string::npos) {
        return Fail(error, "string value contains '|' or newline: " + s);
      }
      line->append(s);
      break;
    }
  }
  line->push_back('|');
  return true;
}

bool ParseField(const std::string& field, ValueType type, Value* out,
                std::string* error) {
  switch (type) {
    case ValueType::kInt: {
      char* end = nullptr;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') {
        return Fail(error, "bad int field: " + field);
      }
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return Fail(error, "bad double field: " + field);
      }
      *out = Value(v);
      return true;
    }
    case ValueType::kString:
      *out = Value(field);
      return true;
  }
  return Fail(error, "unknown value type");
}

}  // namespace

bool WriteTblFile(const Relation& relation, const std::string& path,
                  std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Fail(error, "cannot open " + path + " for writing");
  // Zip the columns' runs (run boundaries agree across columns: the same
  // chunks, then the tail) and emit row-major without materializing tuples.
  size_t arity = relation.schema().arity();
  if (arity == 0 || relation.empty()) {
    out.flush();
    return out ? true : Fail(error, "write error on " + path);
  }
  std::vector<std::vector<ColumnRun>> runs(arity);
  for (size_t col = 0; col < arity; ++col) {
    relation.ForEachRun(
        col, [&](const ColumnRun& run) { runs[col].push_back(run); });
  }
  std::string line;
  for (size_t r = 0; r < runs[0].size(); ++r) {
    for (size_t offset = 0; offset < runs[0][r].length; ++offset) {
      line.clear();
      for (size_t col = 0; col < arity; ++col) {
        if (!AppendRunField(runs[col][r], offset, &line, error)) return false;
      }
      line.push_back('\n');
      out << line;
    }
  }
  out.flush();
  if (!out) return Fail(error, "write error on " + path);
  return true;
}

bool WriteTblDirectory(const Database& db, const std::string& dir,
                       std::string* error) {
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const Relation& rel = db.relation(rid);
    std::string path = dir + "/" + rel.schema().name() + ".tbl";
    if (!WriteTblFile(rel, path, error)) return false;
  }
  return true;
}

bool ReadTblFile(Database* db, const std::string& relation_name,
                 const std::string& path, std::string* error) {
  auto relation_id = db->schema().FindRelation(relation_name);
  if (!relation_id.has_value()) {
    return Fail(error, "unknown relation " + relation_name);
  }
  const RelationSchema& schema = db->schema().relation(*relation_id);

  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open " + path);
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
        return Fail(error, path + ":" + std::to_string(line_number) +
                               ": unterminated field");
      }
      if (tuple.size() >= schema.arity()) {
        return Fail(error, path + ":" + std::to_string(line_number) +
                               ": too many fields");
      }
      Value v;
      if (!ParseField(line.substr(start, bar - start),
                      schema.attribute(tuple.size()).type, &v, error)) {
        return false;
      }
      tuple.push_back(std::move(v));
      start = bar + 1;
    }
    if (tuple.size() != schema.arity()) {
      return Fail(error, path + ":" + std::to_string(line_number) +
                             ": expected " + std::to_string(schema.arity()) +
                             " fields, got " + std::to_string(tuple.size()));
    }
    db->Insert(*relation_id, std::move(tuple));
  }
  // Seal so the freshly loaded relation carries encodings and chunk
  // statistics even when its size is not a chunk-capacity multiple.
  db->SealStorage();
  return true;
}

bool ReadTblDirectory(Database* db, const std::string& dir,
                      std::string* error) {
  for (size_t rid = 0; rid < db->schema().NumRelations(); ++rid) {
    const std::string& name = db->schema().relation(rid).name();
    if (!ReadTblFile(db, name, dir + "/" + name + ".tbl", error)) {
      return false;
    }
  }
  return true;
}

}  // namespace cqa
