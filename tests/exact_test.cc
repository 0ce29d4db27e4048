#include "cqa/exact.h"

#include <gtest/gtest.h>

#include "cqa/preprocess.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;
using testing::MakeRandomSynopsis;

TEST(ExactTest, ExampleOneIsOneHalf) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  std::optional<double> r = ExactRelativeFrequencyByRepairs(*fx.db, q, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 0.5);
}

TEST(ExactTest, PerAnswerFrequencies) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  // Bob appears in every repair; Alice and Tim in half each.
  EXPECT_DOUBLE_EQ(
      *ExactRelativeFrequencyByRepairs(*fx.db, q, {Value("Bob")}), 1.0);
  EXPECT_DOUBLE_EQ(
      *ExactRelativeFrequencyByRepairs(*fx.db, q, {Value("Alice")}), 0.5);
  EXPECT_DOUBLE_EQ(
      *ExactRelativeFrequencyByRepairs(*fx.db, q, {Value("Tim")}), 0.5);
  EXPECT_DOUBLE_EQ(
      *ExactRelativeFrequencyByRepairs(*fx.db, q, {Value("Zoe")}), 0.0);
}

TEST(ExactTest, CertainAnswersSemantics) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  EXPECT_EQ(IsCertainAnswerByRepairs(*fx.db, q, {Value("Bob")}),
            std::optional<bool>(true));
  EXPECT_EQ(IsCertainAnswerByRepairs(*fx.db, q, {Value("Alice")}),
            std::optional<bool>(false));
}

TEST(ExactTest, EnumerationOnKnownSynopsis) {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  builder.AddImage({{0, 0}});          // Covers 3 of 6 databases.
  builder.AddImage({{0, 1}, {1, 2}});  // Covers 1 more.
  const Synopsis s = builder.Finish();
  std::optional<double> r = ExactRatioByEnumeration(s);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 4.0 / 6.0, 1e-12);
}

TEST(ExactTest, InclusionExclusionMatchesEnumeration) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    Synopsis s = MakeRandomSynopsis(rng, 5, 4, 6, 3);
    std::optional<double> by_enum = ExactRatioByEnumeration(s);
    std::optional<double> by_ie = ExactRatioInclusionExclusion(s);
    ASSERT_TRUE(by_enum.has_value());
    ASSERT_TRUE(by_ie.has_value());
    EXPECT_NEAR(*by_enum, *by_ie, 1e-9) << s.DebugString();
  }
}

TEST(ExactTest, EmptySynopsisHasZeroRatio) {
  Synopsis s;
  EXPECT_EQ(ExactRatioByEnumeration(s), std::optional<double>(0.0));
  EXPECT_EQ(ExactRatioInclusionExclusion(s), std::optional<double>(0.0));
}

TEST(ExactTest, FullCoverageImageGivesRatioOne) {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{3, 0, 0});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 1}});
  builder.AddImage({{0, 2}});
  const Synopsis s = builder.Finish();
  EXPECT_NEAR(*ExactRatioByEnumeration(s), 1.0, 1e-12);
  EXPECT_NEAR(*ExactRatioInclusionExclusion(s), 1.0, 1e-12);
}

TEST(ExactTest, BudgetsAreRespected) {
  SynopsisBuilder builder;
  for (int b = 0; b < 30; ++b) builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddImage({{0, 0}});
  const Synopsis s = builder.Finish();
  // 2^30 databases exceed the default enumeration budget.
  EXPECT_EQ(ExactRatioByEnumeration(s), std::nullopt);
  // But inclusion-exclusion handles it (1 image).
  EXPECT_NEAR(*ExactRatioInclusionExclusion(s), 0.5, 1e-12);
  // And a synopsis with too many images trips the IE budget.
  SynopsisBuilder many_builder;
  many_builder.AddBlock(Synopsis::Block{2, 0, 0});
  many_builder.AddBlock(Synopsis::Block{30, 0, 1});
  for (uint32_t i = 0; i < 25; ++i) many_builder.AddImage({{1, i}});
  const Synopsis many = many_builder.Finish();
  EXPECT_EQ(ExactRatioInclusionExclusion(many, /*max_images=*/22),
            std::nullopt);
}

TEST(ExactTest, DecomposedMatchesEnumerationOnRandomSynopses) {
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    Synopsis s = testing::MakeRandomSynopsis(rng, 5, 4, 6, 3);
    std::optional<double> by_enum = ExactRatioByEnumeration(s);
    std::optional<double> by_dec = ExactRatioDecomposed(s);
    ASSERT_TRUE(by_enum.has_value());
    ASSERT_TRUE(by_dec.has_value());
    EXPECT_NEAR(*by_enum, *by_dec, 1e-9) << s.DebugString();
  }
}

TEST(ExactTest, DecompositionScalesToManyIndependentImages) {
  // 40 disjoint (block, image) pairs: far beyond the monolithic
  // inclusion-exclusion budget, trivial after decomposition.
  SynopsisBuilder builder;
  double expected_none = 1.0;
  for (uint32_t b = 0; b < 40; ++b) {
    uint32_t size = 2 + b % 3;
    builder.AddBlock(Synopsis::Block{size, 0, b});
    builder.AddImage({{b, 0}});
    expected_none *= 1.0 - 1.0 / static_cast<double>(size);
  }
  const Synopsis s = builder.Finish();
  EXPECT_EQ(ExactRatioInclusionExclusion(s), std::nullopt);
  std::optional<double> r = ExactRatioDecomposed(s);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 1.0 - expected_none, 1e-12);
}

TEST(ExactTest, DecomposedRespectsComponentBudget) {
  // One component with 30 overlapping images exceeds the budget.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{31, 0, 1});
  for (uint32_t i = 0; i < 30; ++i) builder.AddImage({{0, 0}, {1, i}});
  const Synopsis s = builder.Finish();
  EXPECT_EQ(ExactRatioDecomposed(s, /*max_component_images=*/22),
            std::nullopt);
}

TEST(ExactTest, DecomposedEmptySynopsis) {
  EXPECT_EQ(ExactRatioDecomposed(Synopsis()), std::optional<double>(0.0));
}

TEST(ExactTest, RepairsOracleBudget) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  EXPECT_EQ(ExactRelativeFrequencyByRepairs(*fx.db, q, {Value("Bob")},
                                            /*max_repairs=*/2),
            std::nullopt);
}

TEST(ExactTest, SynopsisRatioMatchesRepairOracle) {
  // Lemma 4.1(3): R_{D,Σ,Q}(t̄) = R(H, B). Cross-check the synopsis path
  // against the repair-enumeration path on Example 1.1's queries.
  EmployeeFixture fx;
  for (const char* text : {
           "Q() :- employee(1, N1, D), employee(2, N2, D).",
           "Q() :- employee(I, N, 'IT').",
           "Q() :- employee(I, 'Bob', D).",
           "Q() :- employee(1, N1, D1), employee(2, N2, D2).",
       }) {
    ConjunctiveQuery q = MustParseCq(*fx.schema, text);
    PreprocessResult pre = BuildSynopses(*fx.db, q);
    double via_synopsis = 0.0;
    if (pre.NumAnswers() == 1) {
      via_synopsis = *ExactRatioByEnumeration(pre.answers()[0].synopsis);
    }
    double via_repairs = *ExactRelativeFrequencyByRepairs(*fx.db, q, {});
    EXPECT_NEAR(via_synopsis, via_repairs, 1e-12) << text;
  }
}

}  // namespace
}  // namespace cqa
