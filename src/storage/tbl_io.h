// dbgen-compatible `.tbl` readers and writers. Writing streams straight
// out of column runs (no tuple materialization). Reading streams the file
// in fixed blocks, parses each line in place into typed fields and appends
// them to the relation's tail columns, then seals, so loaded instances
// carry segment encodings and chunk statistics end to end.
#ifndef CQABENCH_STORAGE_TBL_IO_H_
#define CQABENCH_STORAGE_TBL_IO_H_

#include <cstddef>
#include <string>

#include "storage/database.h"

namespace cqa {

/// dbgen-compatible `.tbl` serialization: one line per fact, fields
/// separated and terminated by '|' (the format TPC's dbgen/dsdgen emit
/// and the paper loads into PostgreSQL). Doubles round-trip exactly
/// (%.17g); strings must not contain '|' or newlines.

/// Writes one relation to `path`. On failure returns false and stores a
/// message in *error.
bool WriteTblFile(const Relation& relation, const std::string& path,
                  std::string* error);

/// Writes every relation of `db` as `<dir>/<relation>.tbl`. The directory
/// must exist.
bool WriteTblDirectory(const Database& db, const std::string& dir,
                       std::string* error);

/// Bytes ReadTblFile reads at a time. Lines are split in place inside a
/// block; only a line that straddles a block edge is copied, so memory
/// beyond the relation is one block plus the longest line.
inline constexpr size_t kTblReadBlockBytes = size_t{1} << 20;

/// Appends the facts of `path` to the named relation of *db. Each line is
/// checked whole (arity, and each field parsed as its attribute's type:
/// ints and doubles by std::from_chars, so no leading blank, no '+', no
/// hex float, nothing out of range) before any of it is appended. Empty
/// lines are skipped; the last line may lack its newline. Seals the
/// database's storage afterwards (Database::SealStorage), so loaded
/// instances are fully columnar. On failure returns false with
/// "<path>:<line>: <reason>" in *error (line 0: the file as a whole);
/// the lines before the bad one stay appended, unsealed.
bool ReadTblFile(Database* db, const std::string& relation_name,
                 const std::string& path, std::string* error);

/// Loads `<dir>/<relation>.tbl` for every relation of db's schema.
/// Missing files are an error (generated directories are complete).
bool ReadTblDirectory(Database* db, const std::string& dir,
                      std::string* error);

}  // namespace cqa

#endif  // CQABENCH_STORAGE_TBL_IO_H_
