// Robustness: the typed evaluator must enumerate exactly what the
// Value-based reference loop enumerates on any small typed instance. The
// seeded tests below are the always-on regression tier; the same driver is
// built as a libFuzzer harness for open-ended exploration (see
// fuzz/evaluator_fuzzer.cc and the `fuzz` CMake preset).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "common/rng.h"
#include "fuzz/evaluator_fuzz_driver.h"

namespace cqa {
namespace {

bool RunDriver(const std::string& bytes) {
  return fuzz::EvaluatorInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                              bytes.size());
}

std::map<std::string, std::string> Corpus() {
  std::map<std::string, std::string> entries;
  const std::filesystem::path dir(CQABENCH_EVALUATOR_FUZZ_CORPUS_DIR);
  for (const auto& item : std::filesystem::directory_iterator(dir)) {
    if (!item.is_regular_file()) continue;
    std::ifstream in(item.path(), std::ios::binary);
    entries[item.path().filename().string()] =
        std::string((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  return entries;
}

// Replays every checked-in corpus entry (seeds plus minimized past
// crashers) through the exact driver the libFuzzer harness uses. The
// seeds' verdicts are pinned: type mismatches match nothing.
TEST(EvaluatorFuzzTest, CorpusEntriesHoldTheInvariant) {
  const std::map<std::string, std::string> corpus = Corpus();
  ASSERT_GE(corpus.size(), 8u) << "corpus looks truncated";
  for (const char* empty : {"seed_wrong_type_constants",
                            "seed_cross_type_join"}) {
    ASSERT_TRUE(corpus.count(empty)) << empty;
    EXPECT_FALSE(RunDriver(corpus.at(empty))) << empty;
  }
  for (const char* found : {"seed_join", "seed_self_join_sealed",
                            "seed_nan_and_zeros", "seed_repeated_variable",
                            "seed_boolean_cross_product",
                            "seed_constant_scan"}) {
    ASSERT_TRUE(corpus.count(found)) << found;
    EXPECT_TRUE(RunDriver(corpus.at(found))) << found;
  }
  for (const auto& [name, bytes] : corpus) RunDriver(bytes);
}

// Deterministic byte mutations of every seed: replace, insert or delete
// one to four bytes. Every byte string decodes to some instance and query,
// so every mutant runs both evaluators.
TEST(EvaluatorFuzzTest, MutatedCorpusEntriesHoldTheInvariant) {
  Rng rng(2021);
  size_t found = 0, total = 0;
  for (const auto& [name, seed] : Corpus()) {
    for (int trial = 0; trial < 300; ++trial) {
      std::string bytes = seed;
      const size_t mutations = 1 + rng.UniformIndex(4);
      for (size_t m = 0; m < mutations && !bytes.empty(); ++m) {
        const size_t pos = rng.UniformIndex(bytes.size());
        const char c = static_cast<char>(rng.UniformIndex(256));
        switch (rng.UniformIndex(3)) {
          case 0:
            bytes[pos] = c;
            break;
          case 1:
            bytes.insert(pos, 1, c);
            break;
          case 2:
            bytes.erase(pos, 1);
            break;
        }
      }
      found += RunDriver(bytes);
      ++total;
    }
  }
  // Both outcomes must occur, or the mutations test little.
  EXPECT_GT(found, total / 10);
  EXPECT_LT(found, total);
}

// Uniformly random inputs of every length up to 160 bytes.
TEST(EvaluatorFuzzTest, RandomInputsHoldTheInvariant) {
  Rng rng(17);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string bytes(rng.UniformIndex(161), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformIndex(256));
    RunDriver(bytes);
  }
}

TEST(EvaluatorFuzzTest, DriverHandlesEmptyInput) {
  // No bytes: empty relations and the query r0(V0), which has no match.
  EXPECT_FALSE(fuzz::EvaluatorInput(nullptr, 0));
}

}  // namespace
}  // namespace cqa
