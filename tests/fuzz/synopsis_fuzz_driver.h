#ifndef CQABENCH_TESTS_FUZZ_SYNOPSIS_FUZZ_DRIVER_H_
#define CQABENCH_TESTS_FUZZ_SYNOPSIS_FUZZ_DRIVER_H_

// Shared driver between the libFuzzer harness (fuzz/synopsis_fuzzer.cc,
// built with CQABENCH_FUZZ=ON under clang) and the seeded gtest corpus
// runner (tests/synopsis_fuzz_test.cc), so every corpus input exercises
// identical code in both.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cqa/conflict_worlds.h"
#include "cqa/image_index.h"
#include "cqa/invariants.h"
#include "cqa/symbolic_space.h"
#include "cqa/synopsis_io.h"

namespace cqa::fuzz {

/// ImageIndex gives each block of size >= 2 one cell per tid up to the
/// largest tid an image pins there, plus one, so a file that pins a tid
/// near 2^32 asks for up to 16 GB, which no fuzzing process can hold.
/// Synopses beyond this many cells skip only the ImageIndex step.
constexpr size_t kMaxIndexCells = size_t{1} << 22;

/// The cells ImageIndex lays out for `synopsis`: Σ (largest pinned tid
/// + 2) over its blocks of size >= 2.
inline size_t ImageIndexCells(const Synopsis& synopsis) {
  std::vector<size_t> limit(synopsis.NumBlocks(), 0);
  for (const Synopsis::ImageFact& f : synopsis.facts()) {
    limit[f.block] = std::max(limit[f.block], size_t{f.tid} + 1);
  }
  size_t cells = 0;
  for (size_t b = 0; b < limit.size(); ++b) {
    if (synopsis.blocks()[b].size >= 2) cells += limit[b] + 1;
  }
  return cells;
}

/// Feeds one input to the synopsis file reader. The contract under
/// fuzzing: ReadSynopses either fails with a diagnostic, or every synopsis
/// it returns passes audit::CheckSynopsis and, when it has an image,
/// builds a SymbolicSpace, a TidDigitPlan and, up to kMaxIndexCells, an
/// ImageIndex (each checks its own preconditions with CQA_CHECK). An
/// eligible synopsis also builds a ConflictWorldTable, and every world's
/// mask must match the naive scan (audit::CheckWorldMask). Violations
/// abort, which libFuzzer and gtest both report with the offending input.
/// Returns whether the reader accepted the input.
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
    if (ImageIndexCells(as.synopsis) <= kMaxIndexCells) {
      const ImageIndex index(&as.synopsis);
    }
    if (!ConflictWorldTable::Eligible(as.synopsis)) continue;
    ConflictWorldTable table(&as.synopsis);
    for (uint32_t w = 0; w < table.num_worlds(); ++w) {
      if (!audit::CheckWorldMask(table, w, table.Lookup(w), &why)) {
        std::fprintf(stderr, "world table disagrees: %s\n", why.c_str());
        std::abort();
      }
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
