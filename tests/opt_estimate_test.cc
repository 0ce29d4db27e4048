#include "cqa/opt_estimate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "cqa/monte_carlo.h"
#include "test_util.h"

namespace cqa {
namespace {

/// A sampler with a known Bernoulli(p) distribution.
class BernoulliSampler : public Sampler {
 public:
  explicit BernoulliSampler(double p) : p_(p) {}
  void DrawBatch(Rng& rng, size_t n, double* out) override {
    FillBatch(n, out, [&] { return rng.Bernoulli(p_) ? 1.0 : 0.0; });
  }
  double GoodnessFactor() const override { return 1.0; }
  const char* name() const override { return "bernoulli"; }

 private:
  double p_;
};

/// A sampler with sub-Bernoulli variance: constant p.
class ConstantSampler : public Sampler {
 public:
  explicit ConstantSampler(double p) : p_(p) {}
  void DrawBatch(Rng&, size_t n, double* out) override {
    std::fill(out, out + n, p_);
  }
  double GoodnessFactor() const override { return 1.0; }
  const char* name() const override { return "constant"; }

 private:
  double p_;
};

/// MonteCarloEstimate's factory over Bernoulli(p) samplers.
SamplerFactory Bernoulli(double p) {
  return [p] { return std::make_unique<BernoulliSampler>(p); };
}

TEST(OptEstimateTest, MuHatApproximatesMean) {
  BernoulliSampler sampler(0.3);
  Rng rng(1);
  OptEstimateResult r = OptEstimate(sampler, 0.1, 0.25, rng);
  EXPECT_FALSE(r.timed_out);
  // The stopping-rule phase guarantees mu within (1+eps1) factors whp;
  // allow a loose band.
  EXPECT_NEAR(r.mu_hat, 0.3, 0.12);
  EXPECT_GE(r.num_iterations, 1u);
  EXPECT_GT(r.samples_used, 0u);
}

TEST(OptEstimateTest, IterationCountGrowsAsMeanShrinks) {
  Rng rng(2);
  BernoulliSampler big(0.5);
  BernoulliSampler small(0.01);
  OptEstimateResult r_big = OptEstimate(big, 0.1, 0.25, rng);
  OptEstimateResult r_small = OptEstimate(small, 0.1, 0.25, rng);
  EXPECT_GT(r_small.num_iterations, r_big.num_iterations);
  EXPECT_GT(r_small.samples_used, r_big.samples_used);
}

TEST(OptEstimateTest, LowVarianceSamplersNeedFewerIterations) {
  // Same mean, very different variance: the optimal estimator must give
  // the constant sampler far fewer main-loop iterations (this is the
  // variance-sensitivity that makes KLM beat KL at few joins).
  Rng rng(3);
  BernoulliSampler noisy(0.2);
  ConstantSampler quiet(0.2);
  OptEstimateResult r_noisy = OptEstimate(noisy, 0.1, 0.25, rng);
  OptEstimateResult r_quiet = OptEstimate(quiet, 0.1, 0.25, rng);
  EXPECT_LT(r_quiet.num_iterations, r_noisy.num_iterations / 2);
}

TEST(OptEstimateTest, DeadlineCausesTimeout) {
  BernoulliSampler sampler(1e-9);  // SRA would need ~1e11 samples.
  Rng rng(4);
  OptEstimateResult r =
      OptEstimate(sampler, 0.1, 0.25, rng, Deadline(0.05));
  EXPECT_TRUE(r.timed_out);
}

TEST(MonteCarloTest, EstimateWithinRelativeError) {
  // (ε, δ) guarantee check: with ε=0.2, δ=0.2 at least ~80% of runs must
  // land within 20% of the truth; require 18/20 to keep flake risk low
  // while still detecting a broken estimator.
  const double p = 0.25;
  size_t hits = 0;
  for (int run = 0; run < 20; ++run) {
    Rng rng(100 + run);
    MonteCarloResult r = MonteCarloEstimate(Bernoulli(p), 1, 0.2, 0.2, rng);
    ASSERT_FALSE(r.timed_out);
    if (std::abs(r.estimate - p) <= 0.2 * p) ++hits;
  }
  EXPECT_GE(hits, 18u);
}

TEST(MonteCarloTest, TightEpsilonIsMoreAccurate) {
  Rng rng(5);
  MonteCarloResult loose =
      MonteCarloEstimate(Bernoulli(0.4), 1, 0.3, 0.25, rng);
  MonteCarloResult tight =
      MonteCarloEstimate(Bernoulli(0.4), 1, 0.05, 0.25, rng);
  EXPECT_GT(tight.main_samples, loose.main_samples);
  EXPECT_NEAR(tight.estimate, 0.4, 0.4 * 0.05 * 2);
}

TEST(MonteCarloTest, PropagatesTimeout) {
  Rng rng(6);
  MonteCarloResult r =
      MonteCarloEstimate(Bernoulli(1e-9), 1, 0.1, 0.25, rng, Deadline(0.05));
  EXPECT_TRUE(r.timed_out);
}

/// Sweep across the (ε, δ) grid: the guarantee must hold at every
/// configuration, and N must be monotone in the required precision.
class EpsilonDeltaSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EpsilonDeltaSweepTest, GuaranteeHoldsAcrossGrid) {
  auto [epsilon, delta] = GetParam();
  const double p = 0.3;
  size_t hits = 0;
  const int runs = 12;
  for (int run = 0; run < runs; ++run) {
    Rng rng(7000 + run * 13 +
            static_cast<uint64_t>(epsilon * 1000 + delta * 100));
    MonteCarloResult r =
        MonteCarloEstimate(Bernoulli(p), 1, epsilon, delta, rng);
    ASSERT_FALSE(r.timed_out);
    if (std::abs(r.estimate - p) <= epsilon * p) ++hits;
  }
  // Expect >= (1-δ) of runs inside the band; allow one extra failure of
  // slack to keep the suite deterministic across library updates.
  double expected_hits = (1.0 - delta) * runs;
  EXPECT_GE(hits + 1, static_cast<size_t>(expected_hits));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EpsilonDeltaSweepTest,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.2, 0.3),
                       ::testing::Values(0.1, 0.25)),
    [](const ::testing::TestParamInfo<std::tuple<double, double>>& info) {
      return "eps" +
             std::to_string(
                 static_cast<int>(std::get<0>(info.param) * 100)) +
             "_delta" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(OptEstimateTest, IterationCountShrinksWithLooserEpsilon) {
  BernoulliSampler sampler(0.3);
  Rng rng(8);
  OptEstimateResult tight = OptEstimate(sampler, 0.05, 0.25, rng);
  OptEstimateResult loose = OptEstimate(sampler, 0.3, 0.25, rng);
  EXPECT_GT(tight.num_iterations, loose.num_iterations);
}

TEST(OptEstimateTest, IterationCountGrowsWithConfidence) {
  BernoulliSampler sampler(0.3);
  Rng rng(9);
  OptEstimateResult confident = OptEstimate(sampler, 0.1, 0.01, rng);
  OptEstimateResult loose = OptEstimate(sampler, 0.1, 0.5, rng);
  EXPECT_GT(confident.num_iterations, loose.num_iterations);
}

TEST(OptEstimateDeathTest, RejectsBadParameters) {
  BernoulliSampler sampler(0.5);
  Rng rng(7);
  EXPECT_DEATH(OptEstimate(sampler, 0.0, 0.25, rng), "epsilon");
  EXPECT_DEATH(OptEstimate(sampler, 1.5, 0.25, rng), "epsilon");
  EXPECT_DEATH(OptEstimate(sampler, 0.1, 0.0, rng), "delta");
}

}  // namespace
}  // namespace cqa
