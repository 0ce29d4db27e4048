#include "cqa/block_dnf.h"

#include <gtest/gtest.h>

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

TEST(BlockDnfTest, TranslationShape) {
  BlockDnf f = SynopsisToBlockDnf(FixtureSynopsis());
  EXPECT_EQ(f.NumBlocks(), 2u);
  EXPECT_EQ(f.NumVariables(), 5u);
  EXPECT_EQ(f.NumClauses(), 2u);
  ASSERT_EQ(f.clauses[0].size(), 1u);
  EXPECT_EQ(f.clauses[0][0].block, 0u);
  EXPECT_EQ(f.clauses[0][0].index, 0u);
  ASSERT_EQ(f.clauses[1].size(), 2u);
}

TEST(BlockDnfTest, SatisfyingFractionMatchesRatio) {
  Synopsis s = FixtureSynopsis();
  BlockDnf f = SynopsisToBlockDnf(s);
  EXPECT_NEAR(*SatisfyingFraction(f), 4.0 / 6.0, 1e-12);
}

TEST(BlockDnfTest, AgreesWithExactOracleOnRandomSynopses) {
  // The Block DNF fraction is the third independent computation of
  // R(H, B) in this codebase; all must coincide.
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    Synopsis s = MakeRandomSynopsis(rng, 5, 4, 6, 3);
    double via_enum = *ExactRatioByEnumeration(s);
    double via_dnf = *SatisfyingFraction(SynopsisToBlockDnf(s));
    EXPECT_NEAR(via_enum, via_dnf, 1e-12) << s.DebugString();
  }
}

TEST(BlockDnfTest, BudgetIsRespected) {
  BlockDnf f;
  for (int i = 0; i < 30; ++i) f.block_sizes.push_back(2);
  f.clauses.push_back({BlockDnf::Literal{0, 0}});
  EXPECT_EQ(SatisfyingFraction(f, 1 << 20), std::nullopt);
}

TEST(BlockDnfTest, ToStringRendersFormula) {
  BlockDnf f = SynopsisToBlockDnf(FixtureSynopsis());
  std::string text = f.ToString();
  EXPECT_NE(text.find("X0{x0_0 x0_1}"), std::string::npos);
  EXPECT_NE(text.find("(x0_0) | (x0_1 & x1_2)"), std::string::npos);
}

TEST(BlockDnfTest, EmptyFormula) {
  BlockDnf f;
  EXPECT_EQ(f.NumVariables(), 0u);
  EXPECT_EQ(SatisfyingFraction(f), std::optional<double>(0.0));
}

}  // namespace
}  // namespace cqa
