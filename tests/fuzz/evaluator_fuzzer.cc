// libFuzzer entry point for the query evaluator, differential against the
// Value-based reference loop. Build with the `fuzz` preset (clang only):
//   cmake --preset fuzz && cmake --build --preset fuzz
//   ./build-fuzz/tests/evaluator_fuzzer tests/fuzz/evaluator_corpus
// New crashers should be minimized and checked into
// tests/fuzz/evaluator_corpus/ so the gtest runner keeps replaying them in
// every build.

#include <cstddef>
#include <cstdint>

#include "evaluator_fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return cqa::fuzz::EvaluatorOneInput(data, size);
}
