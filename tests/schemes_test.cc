#include "cqa/schemes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cqa/exact.h"
#include "cqa/invariants.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeRandomSynopsis;

TEST(SchemeKindTest, NamesRoundTrip) {
  for (SchemeKind kind : AllSchemeKinds()) {
    EXPECT_EQ(ParseSchemeKind(SchemeKindName(kind)),
              std::optional<SchemeKind>(kind));
  }
  EXPECT_EQ(ParseSchemeKind("NotAScheme"), std::nullopt);
}

TEST(SchemeKindTest, AllFourSchemesListed) {
  EXPECT_EQ(AllSchemeKinds().size(), 4u);
}

TEST(SchemesTest, EmptySynopsisYieldsZero) {
  Synopsis empty;
  ApxParams params;
  Rng rng(1);
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    ApxResult r = scheme->Run(empty, params, rng);
    EXPECT_DOUBLE_EQ(r.estimate, 0.0) << scheme->name();
    EXPECT_FALSE(r.timed_out);
  }
}

/// The central correctness property: on random admissible pairs, every
/// scheme's estimate is within ε (with slack for the δ failure mass) of
/// the exact ratio computed by enumeration.
class SchemeAccuracyTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, int>> {};

TEST_P(SchemeAccuracyTest, WithinRelativeError) {
  auto [kind, seed] = GetParam();
  Rng gen(10000 + seed);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  double exact = *ExactRatioByEnumeration(s);
  ASSERT_GT(exact, 0.0);

  auto scheme = ApxRelativeFreqScheme::Create(kind);
  ApxParams params;
  params.epsilon = 0.1;
  params.delta = 0.05;  // Tighter than the paper's 0.25 to damp flakes.
  Rng rng(20000 + seed);
  ApxResult r = scheme->Run(s, params, rng);
  ASSERT_FALSE(r.timed_out);
  EXPECT_NEAR(r.estimate, exact, 2 * params.epsilon * exact)
      << SchemeKindName(kind) << " on " << s.DebugString();
  EXPECT_GT(r.samples, 0u);
  // Structural audits on the inputs and the result's phase accounting.
  std::string why;
  EXPECT_TRUE(audit::CheckSynopsis(s, &why)) << why;
  EXPECT_EQ(r.samples, r.estimator_samples + r.main_samples)
      << SchemeKindName(kind);
  if (!r.per_thread_samples.empty()) {
    size_t total = 0;
    for (size_t n : r.per_thread_samples) total += n;
    EXPECT_EQ(total, r.main_samples) << SchemeKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeAccuracyTest,
    ::testing::Combine(::testing::ValuesIn(AllSchemeKinds()),
                       ::testing::Range(0, 8)),
    [](const ::testing::TestParamInfo<std::tuple<SchemeKind, int>>& info) {
      return std::string(SchemeKindName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SchemesTest, SingleImageFullBlockRatio) {
  // One image pinning the only block of size 4: R = 1/4.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{4, 0, 0});
  builder.AddImage({{0, 2}});
  const Synopsis s = builder.Finish();
  ApxParams params;
  Rng rng(3);
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    ApxResult r = scheme->Run(s, params, rng);
    EXPECT_NEAR(r.estimate, 0.25, 0.25 * 0.3) << scheme->name();
  }
}

TEST(SchemesTest, CertainAnswerRatioOne) {
  // Images covering every member of a block: R = 1 (a certain answer).
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{3, 0, 0});
  for (uint32_t i = 0; i < 3; ++i) builder.AddImage({{0, i}});
  const Synopsis s = builder.Finish();
  ApxParams params;
  Rng rng(4);
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    ApxResult r = scheme->Run(s, params, rng);
    EXPECT_NEAR(r.estimate, 1.0, 0.25) << scheme->name();
  }
}

TEST(SchemesTest, DeadlinePropagates) {
  // A synopsis with many images and a zero deadline must time out for
  // every scheme.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{50, 0, 0});
  builder.AddBlock(Synopsis::Block{50, 0, 1});
  for (uint32_t i = 0; i < 50; ++i) builder.AddImage({{0, i}, {1, i}});
  const Synopsis s = builder.Finish();
  ApxParams params;
  params.epsilon = 0.01;
  Rng rng(5);
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    ApxResult r = scheme->Run(s, params, rng, Deadline(0.0));
    EXPECT_TRUE(r.timed_out) << scheme->name();
  }
}

TEST(SchemesTest, DeterministicGivenSeed) {
  Rng gen(6);
  Synopsis s = MakeRandomSynopsis(gen, 4, 3, 4, 2);
  ApxParams params;
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    Rng rng_a(7), rng_b(7);
    ApxResult a = scheme->Run(s, params, rng_a);
    ApxResult b = scheme->Run(s, params, rng_b);
    EXPECT_DOUBLE_EQ(a.estimate, b.estimate) << scheme->name();
    EXPECT_EQ(a.samples, b.samples);
  }

  // Pinned runs: a fixed seed must reproduce these counts and estimates
  // exactly, at one and two threads (Cover ignores num_threads). They were
  // recorded with std::mt19937_64, and the in-repo engine reproduces them.
  // One run draws 2.5k (KL, KLM) to 18k (Cover) engine words, several
  // refills of the 312-word state. Only a change of the random stream
  // itself (a new engine, a new draw order) may change these values, on
  // purpose.
  struct Pinned {
    SchemeKind kind;
    size_t threads;
    size_t samples;
    size_t estimator_samples;
    size_t main_samples;
    double estimate;
  };
  const Pinned pinned[] = {
      {SchemeKind::kNatural, 1, 12341, 2900, 9441, 0x1.11c2c5c84de06p-2},
      {SchemeKind::kKl, 1, 1129, 783, 346, 0x1.172a597da3b0dp-2},
      {SchemeKind::kKlm, 1, 1127, 795, 332, 0x1.14a1ac2473d92p-2},
      {SchemeKind::kCover, 1, 13137, 0, 13137, 0x1.1605e63ca2e65p-2},
      {SchemeKind::kNatural, 2, 12341, 2900, 9441, 0x1.1137f099265e7p-2},
      {SchemeKind::kKl, 2, 1129, 783, 346, 0x1.14908396b4738p-2},
      {SchemeKind::kKlm, 2, 1127, 795, 332, 0x1.0e27fdd160d4dp-2},
      {SchemeKind::kCover, 2, 13137, 0, 13137, 0x1.1605e63ca2e65p-2},
  };
  Rng pinned_gen(2);
  const Synopsis larger = MakeRandomSynopsis(pinned_gen, 16, 8, 6, 5);
  ASSERT_EQ(larger.NumImages(), 6u);
  for (const Pinned& p : pinned) {
    ApxParams pinned_params;
    pinned_params.num_threads = p.threads;
    Rng rng(2021);
    const ApxResult r =
        ApxRelativeFreqScheme::Create(p.kind)->Run(larger, pinned_params, rng);
    const std::string where =
        std::string(SchemeKindName(p.kind)) + " at " +
        std::to_string(p.threads) + " thread(s)";
    EXPECT_EQ(r.samples, p.samples) << where;
    EXPECT_EQ(r.estimator_samples, p.estimator_samples) << where;
    EXPECT_EQ(r.main_samples, p.main_samples) << where;
    EXPECT_EQ(r.estimate, p.estimate) << where;
  }
}

}  // namespace
}  // namespace cqa
