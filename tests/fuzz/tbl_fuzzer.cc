// libFuzzer entry point for the .tbl loader. Build with the `fuzz` preset
// (clang only):
//   cmake --preset fuzz && cmake --build --preset fuzz
//   ./build-fuzz/tests/tbl_fuzzer tests/fuzz/tbl_corpus
// New crashers should be minimized and checked into tests/fuzz/tbl_corpus/
// so the gtest corpus runner keeps replaying them in every build.

#include <cstddef>
#include <cstdint>

#include "tbl_fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return cqa::fuzz::TblOneInput(data, size);
}
