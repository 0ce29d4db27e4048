#include "cqa/coverage.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cqa/exact.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeRandomSynopsis;

Synopsis FixtureSynopsis() {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 1}, {1, 2}});
  return builder.Finish();
}

TEST(CoverageTest, EstimatesUnionSize) {
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  Rng rng(1);
  CoverageResult r = SelfAdjustingCoverage(space, 0.1, 0.25, rng);
  EXPECT_FALSE(r.timed_out);
  EXPECT_GT(r.trials, 0u);
  // R(H, B) = normalized · |S•|/|db(B)|; exact is 4/6.
  EXPECT_NEAR(r.normalized_estimate * space.total_weight(), 4.0 / 6.0,
              0.1 * (4.0 / 6.0) * 2);
}

TEST(CoverageTest, StepBudgetIsLinearInImageCount) {
  // Algorithm 6's N is proportional to |H|: the step count of a big-H
  // synopsis must dwarf a small-H one at equal (ε, δ).
  Rng gen(9);
  Synopsis small = MakeRandomSynopsis(gen, 4, 3, 2, 2);
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{40, 0, 0});
  builder.AddBlock(Synopsis::Block{40, 0, 1});
  for (uint32_t i = 0; i < 40; ++i) builder.AddImage({{0, i}, {1, i}});
  const Synopsis big = builder.Finish();
  SymbolicSpace small_space(&small);
  SymbolicSpace big_space(&big);
  Rng rng(2);
  CoverageResult r_small = SelfAdjustingCoverage(small_space, 0.2, 0.25, rng);
  CoverageResult r_big = SelfAdjustingCoverage(big_space, 0.2, 0.25, rng);
  EXPECT_GT(r_big.steps, r_small.steps * 4);
}

class CoveragePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CoveragePropertyTest, WithinRelativeErrorOnRandomSynopses) {
  Rng gen(500 + GetParam());
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  ASSERT_GT(exact, 0.0);
  SymbolicSpace space(&s);
  Rng rng(600 + GetParam());
  CoverageResult r = SelfAdjustingCoverage(space, 0.1, 0.1, rng);
  double estimate = r.normalized_estimate * space.total_weight();
  // δ=0.1 per run; allow 2ε slack to keep the suite deterministic-ish.
  EXPECT_NEAR(estimate, exact, 2 * 0.1 * exact) << s.DebugString();
}

INSTANTIATE_TEST_SUITE_P(RandomSynopses, CoveragePropertyTest,
                         ::testing::Range(0, 10));

TEST(CoverageTest, DeadlineCausesTimeout) {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{50, 0, 0});
  for (uint32_t i = 0; i < 50; ++i) builder.AddImage({{0, i}});
  const Synopsis big = builder.Finish();
  SymbolicSpace space(&big);
  Rng rng(3);
  CoverageResult r = SelfAdjustingCoverage(space, 0.01, 0.01, rng,
                                           Deadline(0.0));
  EXPECT_TRUE(r.timed_out);
}

TEST(CoverageDeathTest, RejectsBadParameters) {
  Synopsis s = FixtureSynopsis();
  SymbolicSpace space(&s);
  Rng rng(4);
  EXPECT_DEATH(SelfAdjustingCoverage(space, 0.0, 0.25, rng), "epsilon");
  EXPECT_DEATH(SelfAdjustingCoverage(space, 0.1, 1.5, rng), "delta");
}

}  // namespace
}  // namespace cqa
