#ifndef CQABENCH_TESTS_FUZZ_TBL_FUZZ_DRIVER_H_
#define CQABENCH_TESTS_FUZZ_TBL_FUZZ_DRIVER_H_

// Shared driver between the libFuzzer harness (fuzz/tbl_fuzzer.cc, built
// with CQABENCH_FUZZ=ON under clang) and the seeded gtest corpus runner
// (tests/tbl_fuzz_test.cc), so every corpus input exercises identical code
// in both.

#include <unistd.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "reference_tbl_reader.h"
#include "storage/audit.h"
#include "storage/tbl_io.h"

namespace cqa::fuzz {

/// f(k int, v double, s string, n int): every column type once, and two
/// int columns so dictionary and plain int chunks can meet in one row.
inline const Schema& TblFuzzSchema() {
  static const Schema schema = [] {
    Schema s;
    s.AddRelation(RelationSchema("f", {{"k", ValueType::kInt},
                                       {"v", ValueType::kDouble},
                                       {"s", ValueType::kString},
                                       {"n", ValueType::kInt}}));
    return s;
  }();
  return schema;
}

/// A scratch file of this process (ReadTblFile reads only files).
inline std::string TblFuzzPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("cqa_tbl_fuzz_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Removes the scratch files of one input when it is done.
struct TblFuzzFiles {
  std::string input = TblFuzzPath("input.tbl");
  std::string copy = TblFuzzPath("copy.tbl");
  ~TblFuzzFiles() {
    std::error_code ignored;
    std::filesystem::remove(input, ignored);
    std::filesystem::remove(copy, ignored);
  }
};

[[noreturn]] inline void TblFuzzAbort(const char* what,
                                      const std::string& detail) {
  std::fprintf(stderr, "%s: %s\n", what, detail.c_str());
  std::abort();
}

/// True iff `error` starts with "<path>:<line>: ".
inline bool LocatedError(const std::string& error, const std::string& path) {
  if (error.rfind(path + ":", 0) != 0) return false;
  size_t i = path.size() + 1;
  const size_t digits = i;
  while (i < error.size() && std::isdigit(static_cast<unsigned char>(error[i]))) {
    ++i;
  }
  return i > digits && error.compare(i, 2, ": ") == 0;
}

/// Feeds one input, as the bytes of a .tbl file, to ReadTblFile over
/// TblFuzzSchema's relation. The contract under fuzzing: either the load
/// fails with a "<path>:<line>: " error and every column keeps the same
/// length (once sealed, audit::CheckColumnarStorage finds every segment
/// holding its chunk's rows), or it succeeds, CheckColumnarStorage passes,
/// and WriteTblFile → ReadTblFile gives back the same relation, slot by
/// slot and chunk by chunk (testing::DiffRelationStorage). Violations
/// abort, which libFuzzer and gtest both report with the offending input.
/// Returns whether the loader accepted the input.
inline bool TblInput(const uint8_t* data, size_t size) {
  const TblFuzzFiles files;
  const std::string& path = files.input;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) TblFuzzAbort("cannot write", path);
  }
  Database db(&TblFuzzSchema());
  std::string error, why;
  const bool accepted = ReadTblFile(&db, "f", path, &error);
  if (!accepted && !LocatedError(error, path)) {
    TblFuzzAbort("rejected without a location", error);
  }
  if (!accepted) db.SealStorage();
  if (!audit::CheckColumnarStorage(db, &why)) {
    TblFuzzAbort(accepted ? "accepted into broken storage"
                          : "a rejected line left columns uneven",
                 why);
  }
  if (!accepted) return false;

  const std::string& copy = files.copy;
  if (!WriteTblFile(db.relation(0), copy, &error)) {
    TblFuzzAbort("cannot write back what was read", error);
  }
  Database again(&TblFuzzSchema());
  if (!ReadTblFile(&again, "f", copy, &error)) {
    TblFuzzAbort("cannot read back what was written", error);
  }
  const std::string diff =
      testing::DiffRelationStorage(again.relation(0), db.relation(0));
  if (!diff.empty()) TblFuzzAbort("the round trip changed the relation", diff);
  return true;
}

/// libFuzzer's signature over TblInput.
inline int TblOneInput(const uint8_t* data, size_t size) {
  TblInput(data, size);
  return 0;
}

}  // namespace cqa::fuzz

#endif  // CQABENCH_TESTS_FUZZ_TBL_FUZZ_DRIVER_H_
