// Robustness: the synopsis file reader must refuse every malformed file
// with a diagnostic and hand out only synopses the samplers can run on.
// The seeded tests below are the always-on regression tier; the same
// driver is built as a libFuzzer harness for open-ended exploration (see
// fuzz/synopsis_fuzzer.cc and the `fuzz` CMake preset).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "common/rng.h"
#include "fuzz/synopsis_fuzz_driver.h"

namespace cqa {
namespace {

bool RunDriver(const std::string& bytes) {
  return fuzz::SynopsisInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                             bytes.size());
}

std::map<std::string, std::string> Corpus() {
  std::map<std::string, std::string> entries;
  const std::filesystem::path dir(CQABENCH_SYNOPSIS_FUZZ_CORPUS_DIR);
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
// seeds' verdicts are pinned: the five malformed files must be refused,
// and the others accepted. huge_block_low_tid declares a block of
// 2^32 - 1 tuples and pins tid 9 in it: ImageIndex must size that block
// by the tid, not the block. huge_block_high_tid pins tid 2^32 - 4 in
// the same block; its index would need 2^32 - 2 cells, so the driver
// skips it (ImageIndexTest.CellsPast32BitsStopBeforeAllocating covers
// the constructor).
TEST(SynopsisFuzzTest, CorpusEntriesHoldTheInvariant) {
  const std::map<std::string, std::string> corpus = Corpus();
  ASSERT_GE(corpus.size(), 9u) << "corpus looks truncated";
  for (const char* bad : {"zero_size_block", "unknown_block",
                          "tid_past_block", "two_facts_one_block",
                          "negative_block_size"}) {
    ASSERT_TRUE(corpus.count(bad)) << bad;
    EXPECT_FALSE(RunDriver(corpus.at(bad))) << bad;
  }
  for (const char* good : {"answer_without_image", "noisy_tpch",
                           "huge_block_low_tid", "huge_block_high_tid"}) {
    ASSERT_TRUE(corpus.count(good)) << good;
    EXPECT_TRUE(RunDriver(corpus.at(good))) << good;
  }
  for (const auto& [name, bytes] : corpus) RunDriver(bytes);
}

// Deterministic byte mutations of every seed: replace, insert or delete
// one to four bytes, drawing replacements mostly from the format's own
// alphabet so that many mutants still parse.
TEST(SynopsisFuzzTest, MutatedCorpusEntriesHoldTheInvariant) {
  static const char kAlphabet[] = "0123456789|:, \n-ABIis";
  Rng rng(2021);
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

// Truncating a valid file at every byte yields a prefix the reader either
// refuses or reads as fewer, still well-formed synopses.
TEST(SynopsisFuzzTest, TruncationAtEveryByteHoldsTheInvariant) {
  const std::string seed = Corpus().at("noisy_tpch");
  for (size_t n = 0; n <= seed.size(); n += 7) RunDriver(seed.substr(0, n));
}

TEST(SynopsisFuzzTest, DriverHandlesEmptyAndPathologicalInput) {
  EXPECT_FALSE(fuzz::SynopsisInput(nullptr, 0));
  // A block of 2^32 - 1 tuples: the reader accepts it, and every
  // sampler structure, ImageIndex included, builds.
  EXPECT_TRUE(RunDriver("CQA_SYNOPSES 1\nA|i:1|\nB|4294967295,0,0|\nI|0:9|\n"));
  // An image whose weight Π 1/size underflows to 0 is refused.
  std::string blocks, facts;
  for (int b = 0; b < 40; ++b) {
    blocks += "4294967295,0," + std::to_string(b) + "|";
    facts += (b > 0 ? " " : "") + std::to_string(b) + ":0";
  }
  EXPECT_FALSE(RunDriver("CQA_SYNOPSES 1\nA|i:1|\nB|" + blocks + "\nI|" +
                         facts + "|\n"));
}

}  // namespace
}  // namespace cqa
