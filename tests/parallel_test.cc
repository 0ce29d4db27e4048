#include "cqa/parallel.h"

#include <gtest/gtest.h>

#include "cqa/exact.h"
#include "cqa/klm_sampler.h"
#include "cqa/schemes.h"
#include "natural_sampler.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeRandomSynopsis;
using testing::NaturalSampler;

TEST(ParallelMonteCarloTest, SingleThreadMatchesSerialImplementation) {
  Rng gen(1);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  Rng rng_serial(7), rng_parallel(7);
  NaturalSampler serial_sampler(&s);
  MonteCarloResult serial =
      MonteCarloEstimate(serial_sampler, 0.1, 0.25, rng_serial);
  MonteCarloResult parallel = ParallelMonteCarloEstimate(
      [&] { return std::make_unique<NaturalSampler>(&s); }, 1, 0.1, 0.25,
      rng_parallel);
  EXPECT_DOUBLE_EQ(serial.estimate, parallel.estimate);
  EXPECT_EQ(serial.main_samples, parallel.main_samples);
}

class ParallelThreadsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelThreadsTest, EstimateStaysAccurate) {
  Rng gen(2);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  ASSERT_GT(exact, 0.0);
  SymbolicSpace space(&s);
  Rng rng(50 + GetParam());
  MonteCarloResult r = ParallelMonteCarloEstimate(
      [&] { return std::make_unique<KlmSampler>(&space); }, GetParam(), 0.1,
      0.05, rng);
  ASSERT_FALSE(r.timed_out);
  double estimate = r.estimate * space.total_weight();
  EXPECT_NEAR(estimate, exact, 2 * 0.1 * exact) << "threads=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelThreadsTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelMonteCarloTest, SampleCountIsSplitExactly) {
  Rng gen(3);
  Synopsis s = MakeRandomSynopsis(gen, 4, 3, 3, 2);
  Rng rng(9);
  MonteCarloResult r = ParallelMonteCarloEstimate(
      [&] { return std::make_unique<NaturalSampler>(&s); }, 3, 0.2, 0.25,
      rng);
  ASSERT_FALSE(r.timed_out);
  EXPECT_GT(r.main_samples, 0u);
}

TEST(ParallelMonteCarloTest, SchemesAcceptThreadCount) {
  // End to end through ApxParams::num_threads: Monte-Carlo schemes stay
  // within the accuracy band with a parallel main loop; Cover ignores the
  // setting and still works.
  Rng gen(4);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  ASSERT_GT(exact, 0.0);
  ApxParams params;
  params.epsilon = 0.1;
  params.delta = 0.05;
  params.num_threads = 4;
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    Rng rng(60);
    ApxResult r = scheme->Run(s, params, rng);
    ASSERT_FALSE(r.timed_out) << SchemeKindName(kind);
    EXPECT_NEAR(r.estimate, exact, 2 * params.epsilon * exact)
        << SchemeKindName(kind);
  }
}

TEST(ParallelMonteCarloTest, DeadlinePropagatesAcrossThreads) {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{50, 0, 0});
  builder.AddBlock(Synopsis::Block{50, 0, 1});
  for (uint32_t i = 0; i < 50; ++i) builder.AddImage({{0, i}, {1, i}});
  const Synopsis s = builder.Finish();
  SymbolicSpace space(&s);
  Rng rng(10);
  MonteCarloResult r = ParallelMonteCarloEstimate(
      [&] { return std::make_unique<KlmSampler>(&space); }, 4, 0.01, 0.01,
      rng, Deadline(0.0));
  EXPECT_TRUE(r.timed_out);
}

}  // namespace
}  // namespace cqa
