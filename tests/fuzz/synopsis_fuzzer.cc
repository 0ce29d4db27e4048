// libFuzzer entry point for the synopsis file reader. Build with the
// `fuzz` preset (clang only):
//   cmake --preset fuzz && cmake --build --preset fuzz
//   ./build-fuzz/tests/synopsis_fuzzer tests/fuzz/synopsis_corpus
// New crashers should be minimized and checked into
// tests/fuzz/synopsis_corpus/ so the gtest corpus runner keeps replaying
// them in every build.

#include <cstddef>
#include <cstdint>

#include "synopsis_fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return cqa::fuzz::SynopsisOneInput(data, size);
}
