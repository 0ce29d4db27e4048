// Robustness: the .tbl loader must refuse every malformed file with a
// located diagnostic and leave its columns even, and whatever it accepts
// must pass the storage audit and survive a write-then-read round trip.
// The seeded tests below are the always-on regression tier; the same
// driver is built as a libFuzzer harness for open-ended exploration (see
// fuzz/tbl_fuzzer.cc and the `fuzz` CMake preset).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "common/rng.h"
#include "fuzz/tbl_fuzz_driver.h"

namespace cqa {
namespace {

bool RunDriver(const std::string& bytes) {
  return fuzz::TblInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                        bytes.size());
}

std::map<std::string, std::string> Corpus() {
  std::map<std::string, std::string> entries;
  const std::filesystem::path dir(CQABENCH_TBL_FUZZ_CORPUS_DIR);
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
// seeds' verdicts are pinned.
TEST(TblFuzzTest, CorpusEntriesHoldTheInvariant) {
  const std::map<std::string, std::string> corpus = Corpus();
  ASSERT_GE(corpus.size(), 14u) << "corpus looks truncated";
  for (const char* bad :
       {"seed_int_out_of_range", "seed_double_overflow",
        "seed_double_underflow", "seed_hex_float", "seed_leading_blank",
        "seed_plus_sign", "seed_too_many_fields", "seed_too_few_fields",
        "seed_unterminated"}) {
    ASSERT_TRUE(corpus.count(bad)) << bad;
    EXPECT_FALSE(RunDriver(corpus.at(bad))) << bad;
  }
  for (const char* good : {"seed_rows", "seed_writer_edges",
                           "seed_no_trailing_newline", "seed_empty_lines",
                           "seed_dictionary"}) {
    ASSERT_TRUE(corpus.count(good)) << good;
    EXPECT_TRUE(RunDriver(corpus.at(good))) << good;
  }
  for (const auto& [name, bytes] : corpus) RunDriver(bytes);
}

// Deterministic byte mutations of every seed: replace, insert or delete
// one to four bytes, drawing replacements mostly from the format's own
// alphabet so that many mutants still load.
TEST(TblFuzzTest, MutatedCorpusEntriesHoldTheInvariant) {
  static const char kAlphabet[] = "0123456789|-.eE+ \n\tinfaxp";
  Rng rng(2026);
  size_t accepted = 0, total = 0;
  for (const auto& [name, seed] : Corpus()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string bytes = seed;
      const size_t mutations = 1 + rng.UniformIndex(4);
      for (size_t m = 0; m < mutations && !bytes.empty(); ++m) {
        const size_t pos = rng.UniformIndex(bytes.size());
        const char c = rng.Bernoulli(0.8)
                           ? kAlphabet[rng.UniformIndex(sizeof(kAlphabet) - 1)]
                           : static_cast<char>(rng.UniformIndex(256));
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
      accepted += RunDriver(bytes);
      ++total;
    }
  }
  // Both verdicts must occur, or the mutations test nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, total);
}

// Truncating a valid file at every byte yields a prefix the loader either
// refuses (a cut inside the last line) or reads as fewer rows.
TEST(TblFuzzTest, TruncationAtEveryByteHoldsTheInvariant) {
  const std::string seed = Corpus().at("seed_writer_edges");
  for (size_t n = 0; n <= seed.size(); ++n) RunDriver(seed.substr(0, n));
}

TEST(TblFuzzTest, DriverHandlesEmptyAndPathologicalInput) {
  EXPECT_TRUE(fuzz::TblInput(nullptr, 0));
  EXPECT_TRUE(RunDriver("\n\n\n"));
  EXPECT_FALSE(RunDriver("|||||||||"));
  EXPECT_FALSE(RunDriver(std::string(3000, '9') + "|0|s|1|\n"));
  // More rows than a chunk, with one bad line at the very end.
  std::string many;
  for (int i = 0; i < 5000; ++i) {
    many += std::to_string(i % 7) + "|0.5|s" + std::to_string(i % 3) + "|" +
            std::to_string(i) + "|\n";
  }
  EXPECT_TRUE(RunDriver(many));
  EXPECT_FALSE(RunDriver(many + "1|x|s|1|\n"));
}

}  // namespace
}  // namespace cqa
