#include "cqa/monte_carlo.h"

#include <gtest/gtest.h>

#include "cqa/exact.h"
#include "cqa/klm_sampler.h"
#include "cqa/schemes.h"
#include "natural_sampler.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeRandomSynopsis;
using testing::NaturalSampler;

class ParallelThreadsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelThreadsTest, EstimateStaysAccurate) {
  Rng gen(2);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  ASSERT_GT(exact, 0.0);
  SymbolicSpace space(&s);
  Rng rng(50 + GetParam());
  MonteCarloResult r = MonteCarloEstimate(
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
  MonteCarloResult r = MonteCarloEstimate(
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
  MonteCarloResult r = MonteCarloEstimate(
      [&] { return std::make_unique<KlmSampler>(&space); }, 4, 0.01, 0.01,
      rng, Deadline(0.0));
  EXPECT_TRUE(r.timed_out);
}

/// monte_carlo.runs counts main loops started and monte_carlo.timeouts
/// those the deadline cut, whatever the width: a completed run and a run
/// under an expired deadline (which OptEstimate already cuts) move both
/// counters the same way at one thread and at four.
TEST(MonteCarloCountersTest, RunsAndTimeoutsAgreeAcrossWidths) {
#ifdef CQABENCH_NO_OBS
  GTEST_SKIP() << "counters are compiled out";
#else
  Rng gen(5);
  Synopsis s = MakeRandomSynopsis(gen, 4, 3, 3, 2);
  const SamplerFactory factory = [&] {
    return std::make_unique<NaturalSampler>(&s);
  };
  const obs::Registry& registry = obs::Registry::Instance();
  struct Moves {
    uint64_t runs;
    uint64_t timeouts;
    bool timed_out;
  };
  auto run = [&](size_t threads, const Deadline& deadline) {
    const uint64_t runs = registry.CounterValue("monte_carlo.runs");
    const uint64_t timeouts = registry.CounterValue("monte_carlo.timeouts");
    Rng rng(11);
    MonteCarloResult r =
        MonteCarloEstimate(factory, threads, 0.2, 0.25, rng, deadline);
    return Moves{registry.CounterValue("monte_carlo.runs") - runs,
                 registry.CounterValue("monte_carlo.timeouts") - timeouts,
                 r.timed_out};
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const Moves done = run(threads, Deadline());
    EXPECT_FALSE(done.timed_out) << "threads=" << threads;
    EXPECT_EQ(done.runs, 1u) << "threads=" << threads;
    EXPECT_EQ(done.timeouts, 0u) << "threads=" << threads;
  }
  const Moves cut_serial = run(1, Deadline(0.0));
  const Moves cut_parallel = run(4, Deadline(0.0));
  EXPECT_TRUE(cut_serial.timed_out);
  EXPECT_TRUE(cut_parallel.timed_out);
  EXPECT_EQ(cut_serial.runs, cut_parallel.runs);
  EXPECT_EQ(cut_serial.timeouts, cut_parallel.timeouts);
#endif
}

}  // namespace
}  // namespace cqa
