#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "cqa/exact.h"
#include "cqa/indexed_natural_sampler.h"
#include "cqa/kl_sampler.h"
#include "cqa/klm_sampler.h"
#include "natural_sampler.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmpiricalMean;
using testing::MakeRandomSynopsis;
using testing::NaturalSampler;

constexpr size_t kDraws = 60000;
// 3-sigma band for a [0,1]-valued mean over kDraws samples.
constexpr double kTol = 0.012;

Synopsis FixtureSynopsis() {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 1}, {1, 2}});
  return builder.Finish();
}

TEST(NaturalSamplerTest, ExpectationIsRatio) {
  Synopsis s = FixtureSynopsis();
  NaturalSampler sampler(&s);
  EXPECT_DOUBLE_EQ(sampler.GoodnessFactor(), 1.0);
  Rng rng(1);
  double mean = EmpiricalMean([&] { return sampler.Draw(rng); }, kDraws);
  EXPECT_NEAR(mean, 4.0 / 6.0, kTol);
}

TEST(NaturalSamplerTest, OutputIsZeroOrOne) {
  Synopsis s = FixtureSynopsis();
  NaturalSampler sampler(&s);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    double v = sampler.Draw(rng);
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(SymbolicSpaceTest, TotalWeight) {
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  EXPECT_NEAR(space.total_weight(), 0.5 + 1.0 / 6.0, 1e-12);
}

TEST(SymbolicSpaceTest, SampleElementRespectsWeights) {
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  Rng rng(3);
  Synopsis::Choice choice;
  size_t count0 = 0;
  const size_t n = 40000;
  for (size_t i = 0; i < n; ++i) {
    size_t idx = space.SampleElement(rng, &choice);
    // The drawn image must be contained in the drawn database.
    EXPECT_TRUE(s.ImageContainedIn(idx, choice));
    if (idx == 0) ++count0;
  }
  double expected = 0.5 / (0.5 + 1.0 / 6.0);
  EXPECT_NEAR(static_cast<double>(count0) / n, expected, kTol);
}

TEST(KlSamplerTest, ExpectationMatchesLemma) {
  // Lemma 4.5: E[SampleKL] = R(H,B) · |db(B)|/|S•|.
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  KlSampler sampler(&space);
  EXPECT_NEAR(sampler.GoodnessFactor(), 1.0 / space.total_weight(), 1e-12);
  Rng rng(4);
  double mean = EmpiricalMean([&] { return sampler.Draw(rng); }, kDraws);
  // R = 4/6 and |S•|/|db(B)| = total_weight, so E = R·|db(B)|/|S•|.
  double expected = (4.0 / 6.0) / space.total_weight();
  EXPECT_NEAR(mean, expected, kTol);
}

TEST(KlmSamplerTest, ExpectationMatchesLemma) {
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  KlmSampler sampler(&space);
  Rng rng(5);
  double mean = EmpiricalMean([&] { return sampler.Draw(rng); }, kDraws);
  EXPECT_NEAR(mean, (4.0 / 6.0) / space.total_weight(), kTol);
}

TEST(KlmSamplerTest, OutputsAreReciprocalsOfCounts) {
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  KlmSampler sampler(&space);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    double v = sampler.Draw(rng);
    EXPECT_TRUE(v == 1.0 || v == 0.5) << v;  // k ∈ {1, 2} here.
  }
}

/// Property check across random synopses: all three samplers must satisfy
/// E[Draw] = R(H, B) · GoodnessFactor() (Lemmas 4.3, 4.5, 4.7).
class SamplerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SamplerPropertyTest, AllSamplersAreRGood) {
  Rng gen_rng(1000 + GetParam());
  Synopsis s = MakeRandomSynopsis(gen_rng, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  ASSERT_GT(exact, 0.0);

  Rng rng(2000 + GetParam());
  const size_t draws = 40000;

  NaturalSampler natural(&s);
  double nat_mean = EmpiricalMean([&] { return natural.Draw(rng); }, draws);
  EXPECT_NEAR(nat_mean, exact * natural.GoodnessFactor(), 0.02)
      << s.DebugString();

  SymbolicSpace space(&s);
  KlSampler kl(&space);
  double kl_mean = EmpiricalMean([&] { return kl.Draw(rng); }, draws);
  EXPECT_NEAR(kl_mean, exact * kl.GoodnessFactor(), 0.02) << s.DebugString();

  KlmSampler klm(&space);
  double klm_mean = EmpiricalMean([&] { return klm.Draw(rng); }, draws);
  EXPECT_NEAR(klm_mean, exact * klm.GoodnessFactor(), 0.02)
      << s.DebugString();

  // KL and KLM share their expectation (Lemma 4.7).
  EXPECT_NEAR(kl_mean, klm_mean, 0.03);
}

INSTANTIATE_TEST_SUITE_P(RandomSynopses, SamplerPropertyTest,
                         ::testing::Range(0, 12));

/// Stream-identity contract of Sampler::DrawBatch: batching must consume
/// the RNG exactly as the same number of Draw calls, so serial and
/// batched estimator loops see identical sample streams for a seed.
/// Exercised with uneven chunk sizes to cross batch boundaries.
template <typename SamplerT, typename SpaceT>
void ExpectBatchMatchesRepeatedDraw(const SpaceT* space, uint64_t seed) {
  constexpr size_t kN = 257;  // Prime: never aligns with chunk sizes.
  SamplerT serial_sampler(space);
  Rng serial_rng(seed);
  std::vector<double> serial(kN);
  for (double& v : serial) v = serial_sampler.Draw(serial_rng);

  SamplerT batch_sampler(space);
  Rng batch_rng(seed);
  std::vector<double> batched(kN);
  size_t done = 0;
  for (size_t chunk : {1ul, 17ul, 64ul, kN}) {
    size_t m = std::min(chunk, kN - done);
    batch_sampler.DrawBatch(batch_rng, m, batched.data() + done);
    done += m;
  }
  ASSERT_EQ(done, kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(serial[i], batched[i]) << "draw " << i;
  }
}

TEST(DrawBatchStreamTest, AllSamplersMatchRepeatedDraw) {
  Rng gen_rng(4242);
  for (int t = 0; t < 4; ++t) {
    Synopsis s = MakeRandomSynopsis(gen_rng, 6, 4, 6, 3);
    ExpectBatchMatchesRepeatedDraw<NaturalSampler>(&s, 100 + t);
    ExpectBatchMatchesRepeatedDraw<IndexedNaturalSampler>(&s, 100 + t);
    SymbolicSpace space(&s);
    ExpectBatchMatchesRepeatedDraw<KlSampler>(&space, 200 + t);
    ExpectBatchMatchesRepeatedDraw<KlmSampler>(&space, 200 + t);
  }
}

TEST(SamplerFoldTest, AllSize1SynopsisDrawCost) {
  // One database only: Natural needs no entropy at all, and KL/KLM spend
  // exactly the alias word.
  SynopsisBuilder builder;
  for (uint32_t b = 0; b < 4; ++b) builder.AddBlock(Synopsis::Block{1, 0, b});
  builder.AddImage({{0, 0}});
  builder.AddImage({{1, 0}, {2, 0}});
  builder.AddImage({{3, 0}});
  const Synopsis s = builder.Finish();
  SymbolicSpace space(&s);
  IndexedNaturalSampler natural(&s);
  KlSampler kl(&space);
  KlmSampler klm(&space);
  Rng rng(8);
  for (int d = 0; d < 50; ++d) {
    Rng before = rng;
    EXPECT_EQ(natural.Draw(rng), 1.0);
    EXPECT_TRUE(rng.engine() == before.engine());

    before.engine().discard(1);
    kl.Draw(rng);
    EXPECT_TRUE(rng.engine() == before.engine());

    before.engine().discard(1);
    EXPECT_DOUBLE_EQ(klm.Draw(rng), 1.0 / 3.0);
    EXPECT_TRUE(rng.engine() == before.engine());
  }
}

TEST(SamplerFoldTest, CertainImageRejectsEveryKlIndexAboveIt) {
  // Image 1 lies in every database. KL must reject every drawn i > 1, and
  // KLM must count image 1 on every draw. A lockstep copy of the stream
  // replays SampleElement to learn each draw's i and choice.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{3, 0, 0});
  builder.AddBlock(Synopsis::Block{1, 0, 1});
  builder.AddBlock(Synopsis::Block{2, 0, 2});
  builder.AddImage({{0, 2}, {2, 1}});
  builder.AddImage({{1, 0}});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 1}, {1, 0}, {2, 0}});
  const Synopsis s = builder.Finish();
  SymbolicSpace space(&s);
  KlSampler kl(&space);
  KlmSampler klm(&space);
  Rng rng(9), replay(9);
  Synopsis::Choice choice;
  size_t above = 0;
  for (int d = 0; d < 2000; ++d) {
    size_t i = space.SampleElement(replay, &choice);
    double v = kl.Draw(rng);
    ASSERT_TRUE(rng.engine() == replay.engine());
    if (i > 1) {
      ++above;
      EXPECT_EQ(v, 0.0) << "i = " << i;
    }

    i = space.SampleElement(replay, &choice);
    size_t k = 0;
    for (size_t j = 0; j < s.NumImages(); ++j) {
      k += s.ImageContainedIn(j, choice) ? 1 : 0;
    }
    ASSERT_TRUE(s.ImageContainedIn(1, choice));
    EXPECT_EQ(klm.Draw(rng), 1.0 / static_cast<double>(k));
    ASSERT_TRUE(rng.engine() == replay.engine());
  }
  EXPECT_GT(above, 0u);
}

TEST(SymbolicSpaceTest, ReusedChoiceKeepsSize1EntriesZero) {
  // SampleElement writes only the entries of blocks of size >= 2; a
  // choice reused across draws must keep every size-1 entry at 0.
  Rng gen(10);
  for (int t = 0; t < 20; ++t) {
    Synopsis s =
        testing::MakeSynopsisWithSize1Share(gen, 12, 4, 0.5, 0.25, 6, 3);
    SymbolicSpace space(&s);
    Rng rng(11 + t);
    Synopsis::Choice choice;
    for (int d = 0; d < 200; ++d) {
      size_t i = space.SampleElement(rng, &choice);
      ASSERT_EQ(choice.size(), s.NumBlocks());
      for (size_t b = 0; b < s.NumBlocks(); ++b) {
        if (s.blocks()[b].size == 1) {
          ASSERT_EQ(choice[b], 0u) << "block " << b;
        }
      }
      ASSERT_TRUE(s.ImageContainedIn(i, choice)) << s.DebugString();
    }
  }
}

TEST(SamplerVarianceTest, KlmHasNoLargerVarianceThanKl) {
  // §4.2: the variance of SampleKLM is generally smaller than SampleKL's.
  Rng gen_rng(77);
  size_t klm_wins = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    Synopsis s = MakeRandomSynopsis(gen_rng, 6, 4, 6, 3);
    SymbolicSpace space(&s);
    KlSampler kl(&space);
    KlmSampler klm(&space);
    Rng rng(300 + t);
    MeanVarAccumulator kl_acc, klm_acc;
    for (int i = 0; i < 20000; ++i) kl_acc.Add(kl.Draw(rng));
    for (int i = 0; i < 20000; ++i) klm_acc.Add(klm.Draw(rng));
    if (klm_acc.variance() <= kl_acc.variance() + 1e-3) ++klm_wins;
  }
  EXPECT_GE(klm_wins, static_cast<size_t>(trials - 1));
}

}  // namespace
}  // namespace cqa
