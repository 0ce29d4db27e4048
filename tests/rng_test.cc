#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

namespace cqa {
namespace {

/// Positions of the pinned words: the first two, both sides of the middle
/// offset (156) and of the first two refills (312, 624), and two far out.
constexpr uint64_t kPinnedPositions[] = {0,   1,   155, 156,  311,   312,
                                         313, 623, 624, 9999, 999999};

/// The words at kPinnedPositions, recorded from libstdc++'s
/// std::mt19937_64, the engine `Rng` wrapped before the in-repo one.
struct PinnedStream {
  uint64_t seed;
  uint64_t words[std::size(kPinnedPositions)];
};

constexpr PinnedStream kPinnedStreams[] = {
    {0,
     {0x28E837C5CB41DC3EULL, 0xFDFD3A7C3E40F98BULL, 0x9895A7B16EA1317EULL,
      0xFAEF358B42300C11ULL, 0x9BD3214B97007557ULL, 0xF51BE9A6546B243AULL,
      0xFAB97ED6A0880A4DULL, 0xA9989234F325BDB3ULL, 0xC2467E33BBA9F953ULL,
      0xE2B1E4B21DBA573DULL, 0xB9A0126932F6C58BULL}},
    {1,
     {0x2245BD5FBB686F68ULL, 0x22EB92502318FA4EULL, 0x76FAF3CAE24A0E0FULL,
      0x97EF88E4A7ADC4F4ULL, 0x61DD049EAA2604F0ULL, 0x3EC46EF5CCA3110BULL,
      0xB84C3DC12D301B63ULL, 0xFBFAD860A1EA2DCDULL, 0x0085B264BC7F8110ULL,
      0xAE0C4945538782F4ULL, 0x7277495266E0E1F7ULL}},
    {5489,
     {0xC96D191CF6F6AEA6ULL, 0x401F7AC78BC80F1CULL, 0x06CC239429A34614ULL,
      0x4927012902F7E84CULL, 0x13038D24C91C1BB8ULL, 0x5E0B18C0F57393B1ULL,
      0x2FE29C88085C779FULL, 0xD7C295AFC52A1C17ULL, 0xAB1BF7646B530A67ULL,
      0x8A8592F5817ED872ULL, 0x3E80EF8621F8CDFAULL}},
    {0x5DEECE66DULL,
     {0x281993F85085014CULL, 0xC42DC44F28EB9B75ULL, 0x6804215A2037AFB5ULL,
      0x1B0559EC0CDE8137ULL, 0x215F5BE801DC1135ULL, 0x523CAF3FEB5B3DB2ULL,
      0x396A7C409188543DULL, 0x05366221D4038AB9ULL, 0x4BDA88A5AE507B77ULL,
      0xE6B869213640FBC7ULL, 0xE199B89549EBDA99ULL}},
    {0xFFFFFFFFFFFFFFFFULL,
     {0x06A24A7A23FBC864ULL, 0xB7C9110662DD4544ULL, 0x9FBB39CF730D5840ULL,
      0x319582428D69E0ABULL, 0x7A9EDBDEE10E5BB7ULL, 0xF8C87F16C0947106ULL,
      0x7304CE6BBC8C681BULL, 0xB1101640CAF4C9CBULL, 0xBEDD9BF066173E2FULL,
      0x0C79A404B8BE0872ULL, 0x37F334DAB16C0722ULL}},
};

TEST(MersenneTwister64Test, MatchesTheStandardEngineAtPinnedPositions) {
  for (const PinnedStream& pinned : kPinnedStreams) {
    MersenneTwister64 engine(pinned.seed);
    size_t next = 0;
    for (uint64_t at = 0; next < std::size(kPinnedPositions); ++at) {
      const uint64_t word = engine();
      if (at != kPinnedPositions[next]) continue;
      EXPECT_EQ(word, pinned.words[next])
          << "seed " << pinned.seed << " position " << at;
      ++next;
    }
  }
}

TEST(MersenneTwister64Test, StandardRequiredValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces
  // 9981545732273789042.
  MersenneTwister64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(MersenneTwister64Test, RngDrawsThePinnedStream) {
  // Rng's default seed is the fourth pinned stream.
  Rng rng;
  const PinnedStream& pinned = kPinnedStreams[3];
  ASSERT_EQ(pinned.seed, 0x5DEECE66DULL);
  EXPECT_EQ(rng.engine()(), pinned.words[0]);
  EXPECT_EQ(rng.engine()(), pinned.words[1]);
  // 312 state words, the read position and the fork counter, as before.
  EXPECT_EQ(sizeof(Rng), 2512u);
}

TEST(MersenneTwister64Test, DiscardEqualsRepeatedCalls) {
  for (uint64_t offset : {0u, 1u, 200u, 311u, 312u}) {
    for (uint64_t n : {0u, 1u, 111u, 112u, 311u, 312u, 313u, 624u, 1000u}) {
      MersenneTwister64 skipped(7), stepped(7);
      skipped.discard(offset);
      for (uint64_t i = 0; i < offset; ++i) stepped();
      skipped.discard(n);
      for (uint64_t i = 0; i < n; ++i) stepped();
      EXPECT_TRUE(skipped == stepped) << offset << " + " << n;
      EXPECT_EQ(skipped(), stepped()) << offset << " + " << n;
    }
  }
}

TEST(MersenneTwister64Test, EqualityTracksState) {
  MersenneTwister64 a(11), b(11);
  EXPECT_TRUE(a == b);
  for (int i = 0; i < 700; ++i) {  // Across two refills.
    a();
    EXPECT_FALSE(a == b) << i;
    b();
    ASSERT_TRUE(a == b) << i;
  }
  EXPECT_FALSE(MersenneTwister64(11) == MersenneTwister64(12));
}

TEST(MersenneTwister64Test, CopyContinuesIdentically) {
  MersenneTwister64 original(13);
  original.discard(300);
  MersenneTwister64 copy = original;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(copy(), original()) << i;
  MersenneTwister64 assigned(99);
  assigned = original;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(assigned(), original()) << i;
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(2);
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformIndex(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformRealIsInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(4);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) {
    differ = a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(differ);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, WeightedIndexSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.WeightedIndex({2.5}), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(8);
  for (size_t k = 0; k <= 10; ++k) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(10, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), k);
    for (size_t v : sample) EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRangeIsPermutation) {
  Rng rng(9);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(6, 6);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RngTest, SampleWithoutReplacementIsUniformish) {
  // Every element should appear with frequency ~k/n.
  Rng rng(10);
  std::vector<int> counts(8, 0);
  const int trials = 8000;
  for (int t = 0; t < trials; ++t) {
    for (size_t v : rng.SampleWithoutReplacement(8, 3)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 3.0 / 8.0, 0.04);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SplitMix64Test, MatchesReferenceVector) {
  // First outputs of the reference splitmix64 stream seeded with 0
  // (Steele–Lea–Flood / Vigna): the n-th output is SplitMix64 applied to
  // the state n·γ, γ being the 64-bit golden-ratio increment.
  constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  EXPECT_EQ(SplitMix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(SplitMix64(kGamma), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(SplitMix64(2 * kGamma), 0x06C45D188009454FULL);
}

TEST(RngTest, ForkSeedIsDeterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.ForkSeed(), b.ForkSeed());
  }
}

TEST(RngTest, ForkedWorkerStreamsDoNotCollide) {
  // Two workers seeded from consecutive forks must produce disjoint
  // streams: any shared value in the first 1k draws would mean the
  // parallel main loop averages correlated (non-i.i.d.) samples.
  Rng parent(20210620);
  Rng worker0(parent.ForkSeed());
  Rng worker1(parent.ForkSeed());
  std::set<uint64_t> draws0;
  for (int i = 0; i < 1000; ++i) draws0.insert(worker0.engine()());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(draws0.count(worker1.engine()()), 0u) << "collision at " << i;
  }
}

}  // namespace
}  // namespace cqa
