#include "cqa/indexed_natural_sampler.h"

#include <gtest/gtest.h>

#include "cqa/exact.h"
#include "natural_sampler.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmpiricalMean;
using testing::MakeRandomSynopsis;
using testing::NaturalSampler;

TEST(IndexedNaturalSamplerTest, AgreesWithPlainSamplerDrawByDraw) {
  // Same RNG stream, same per-block draw order: the two samplers must
  // return identical values until an early exit diverges the streams —
  // so compare outcome-by-outcome with separate equal-seeded streams.
  Rng gen(1);
  for (int trial = 0; trial < 30; ++trial) {
    Synopsis s = MakeRandomSynopsis(gen, 6, 4, 5, 3);
    NaturalSampler plain(&s);
    IndexedNaturalSampler indexed(&s);
    // Statistical agreement: equal means within Monte Carlo error.
    Rng rng_a(100 + trial), rng_b(100 + trial);
    double mean_plain =
        EmpiricalMean([&] { return plain.Draw(rng_a); }, 20000);
    double mean_indexed =
        EmpiricalMean([&] { return indexed.Draw(rng_b); }, 20000);
    EXPECT_NEAR(mean_plain, mean_indexed, 0.02) << s.DebugString();
  }
}

TEST(IndexedNaturalSamplerTest, ExpectationIsRatio) {
  Rng gen(2);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  IndexedNaturalSampler sampler(&s);
  EXPECT_DOUBLE_EQ(sampler.GoodnessFactor(), 1.0);
  Rng rng(3);
  double mean = EmpiricalMean([&] { return sampler.Draw(rng); }, 60000);
  EXPECT_NEAR(mean, exact, 0.015) << s.DebugString();
}

TEST(IndexedNaturalSamplerTest, OutputIsZeroOrOne) {
  Rng gen(4);
  Synopsis s = MakeRandomSynopsis(gen, 4, 3, 4, 2);
  IndexedNaturalSampler sampler(&s);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    double v = sampler.Draw(rng);
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(IndexedNaturalSamplerTest, SingleImageSingleBlock) {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{4, 0, 0});
  builder.AddImage({{0, 2}});
  const Synopsis s = builder.Finish();
  IndexedNaturalSampler sampler(&s);
  Rng rng(6);
  double mean = EmpiricalMean([&] { return sampler.Draw(rng); }, 40000);
  EXPECT_NEAR(mean, 0.25, 0.01);
}

TEST(IndexedNaturalSamplerTest, FullCoverageAlwaysOne) {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{3, 0, 0});
  for (uint32_t t = 0; t < 3; ++t) builder.AddImage({{0, t}});
  const Synopsis s = builder.Finish();
  IndexedNaturalSampler sampler(&s);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(sampler.Draw(rng), 1.0);
}

}  // namespace
}  // namespace cqa
