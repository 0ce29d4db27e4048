// dbgen-compatible `.tbl` readers and writers. Writing streams straight
// out of column runs (no tuple materialization); reading appends into the
// relations' tail buffers and seals them, so loaded instances carry
// segment encodings and chunk statistics end to end.
#ifndef CQABENCH_STORAGE_TBL_IO_H_
#define CQABENCH_STORAGE_TBL_IO_H_

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

/// Appends the facts of `path` to the named relation of *db, validating
/// arity and coercing each field to the attribute type. Seals the
/// database's storage afterwards (Database::SealStorage), so loaded
/// instances are fully columnar.
bool ReadTblFile(Database* db, const std::string& relation_name,
                 const std::string& path, std::string* error);

/// Loads `<dir>/<relation>.tbl` for every relation of db's schema.
/// Missing files are an error (generated directories are complete).
bool ReadTblDirectory(Database* db, const std::string& dir,
                      std::string* error);

}  // namespace cqa

#endif  // CQABENCH_STORAGE_TBL_IO_H_
