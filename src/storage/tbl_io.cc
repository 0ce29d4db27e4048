#include "storage/tbl_io.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <system_error>
#include <vector>

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
  const ValueSlot slot = run.SlotAt(i);
  switch (run.type) {
    case ValueType::kInt:
      line->append(std::to_string(slot.i));
      break;
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", slot.d);
      line->append(buf);
      break;
    }
    case ValueType::kString: {
      const std::string& s = *slot.s;
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

/// Parses the number in `text` with std::from_chars, which takes exactly
/// what WriteTblFile emits (a '-' sign, inf/nan, subnormals bit-exactly)
/// and refuses leading blanks, '+', hex floats and out-of-range values.
template <typename T>
bool ParseNumber(std::string_view text, const char* kind, T* out,
                 std::string* reason) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ptr == end && ec == std::errc()) return true;
  *reason = ptr == end && ec == std::errc::result_out_of_range
                ? std::string(kind) + " field out of range: "
                : "bad " + std::string(kind) + " field: ";
  reason->append(text);
  return false;
}

/// Checks one line (without its newline) into `fields`, one per
/// attribute; string fields become views into the line. On failure stores
/// the reason and returns false, so a bad line appends nothing.
bool ParseLine(std::string_view line, const RelationSchema& schema,
               std::vector<FieldView>* fields, std::string* reason) {
  size_t n = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p < end) {
    const auto* bar = static_cast<const char*>(std::memchr(p, '|', end - p));
    if (bar == nullptr) {
      *reason = "unterminated field";
      return false;
    }
    if (n >= schema.arity()) {
      *reason = "too many fields";
      return false;
    }
    const std::string_view text(p, static_cast<size_t>(bar - p));
    FieldView& field = (*fields)[n];
    switch (schema.attribute(n).type) {
      case ValueType::kInt:
        if (!ParseNumber(text, "int", &field.i, reason)) return false;
        break;
      case ValueType::kDouble:
        if (!ParseNumber(text, "double", &field.d, reason)) return false;
        break;
      case ValueType::kString:
        field.s = text;
        break;
    }
    ++n;
    p = bar + 1;
  }
  if (n != schema.arity()) {
    *reason = "expected " + std::to_string(schema.arity()) + " fields, got " +
              std::to_string(n);
    return false;
  }
  return true;
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
  size_t line_number = 0;
  auto fail = [&](const std::string& reason) {
    return Fail(error, path + ":" + std::to_string(line_number) + ": " +
                           reason);
  };
  auto relation_id = db->schema().FindRelation(relation_name);
  if (!relation_id.has_value()) {
    return fail("unknown relation " + relation_name);
  }
  const RelationSchema& schema = db->schema().relation(*relation_id);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) return fail(std::string("cannot open: ") +
                                   std::strerror(errno));
  // Reads go straight into `block`: the stream keeps no buffer of its own.
  std::setvbuf(file.get(), nullptr, _IONBF, 0);

  Relation& relation = db->AppendTarget(*relation_id);
  std::vector<FieldView> fields(schema.arity());
  std::string reason;
  auto take_line = [&](std::string_view line) {
    ++line_number;
    if (line.empty()) return true;
    if (!ParseLine(line, schema, &fields, &reason)) return false;
    relation.AppendRow(fields);
    return true;
  };
  const std::unique_ptr<char[]> block(new char[kTblReadBlockBytes]);
  std::string carry;  // The start of a line that straddles a block edge.
  for (;;) {
    const size_t got =
        std::fread(block.get(), 1, kTblReadBlockBytes, file.get());
    if (got == 0) break;
    const char* p = block.get();
    const char* const end = p + got;
    while (p < end) {
      const auto* newline =
          static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (newline == nullptr) {
        carry.append(p, end);
        break;
      }
      const std::string_view rest(p, static_cast<size_t>(newline - p));
      bool ok;
      if (carry.empty()) {
        ok = take_line(rest);
      } else {
        carry.append(rest);
        ok = take_line(carry);
        carry.clear();
      }
      if (!ok) return fail(reason);
      p = newline + 1;
    }
  }
  if (std::ferror(file.get()) != 0) return fail("read error");
  // The last line may lack its newline.
  if (!carry.empty() && !take_line(carry)) return fail(reason);
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
