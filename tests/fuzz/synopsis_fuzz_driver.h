#ifndef CQABENCH_TESTS_FUZZ_SYNOPSIS_FUZZ_DRIVER_H_
#define CQABENCH_TESTS_FUZZ_SYNOPSIS_FUZZ_DRIVER_H_

// Shared driver between the libFuzzer harness (fuzz/synopsis_fuzzer.cc,
// built with CQABENCH_FUZZ=ON under clang) and the seeded gtest corpus
// runner (tests/synopsis_fuzz_test.cc), so every corpus input exercises
// identical code in both.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cqa/image_index.h"
#include "cqa/invariants.h"
#include "cqa/symbolic_space.h"
#include "cqa/synopsis_io.h"

namespace cqa::fuzz {

/// ImageIndex lays out one cell per (block, tid) of every conflict block,
/// so its size is Σ block sizes by design; a file may claim blocks of up
/// to 2^32 - 1 tuples, which no fuzzing process can hold. Synopses beyond
/// this many cells skip only the ImageIndex step.
constexpr size_t kMaxIndexCells = size_t{1} << 22;

/// Feeds one input to the synopsis file reader. The contract under
/// fuzzing: ReadSynopses either fails with a diagnostic, or every synopsis
/// it returns passes audit::CheckSynopsis and, when it has an image,
/// builds a SymbolicSpace, a TidDigitPlan and an ImageIndex (each checks
/// its own preconditions with CQA_CHECK). Violations abort, which
/// libFuzzer and gtest both report with the offending input. Returns
/// whether the reader accepted the input.
inline bool SynopsisInput(const uint8_t* data, size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::vector<AnswerSynopsis> answers;
  std::string error;
  if (!ReadSynopses(in, "input", &answers, &error)) {
    if (error.empty()) std::abort();  // Rejected without a diagnostic.
    return false;
  }
  for (const AnswerSynopsis& as : answers) {
    std::string why;
    if (!audit::CheckSynopsis(as.synopsis, &why)) {
      std::fprintf(stderr, "accepted a malformed synopsis: %s\n",
                   why.c_str());
      std::abort();
    }
    if (as.synopsis.Empty()) continue;
    const SymbolicSpace space(&as.synopsis);
    const TidDigitPlan plan(&as.synopsis);
    size_t cells = 0;
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      if (b.size >= 2) cells += b.size;
    }
    if (cells <= kMaxIndexCells) {
      const ImageIndex index(&as.synopsis);
    }
  }
  return true;
}

/// libFuzzer's signature over SynopsisInput.
inline int SynopsisOneInput(const uint8_t* data, size_t size) {
  SynopsisInput(data, size);
  return 0;
}

}  // namespace cqa::fuzz

#endif  // CQABENCH_TESTS_FUZZ_SYNOPSIS_FUZZ_DRIVER_H_
