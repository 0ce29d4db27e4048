// Chi-square goodness-of-fit tests: the randomized components must draw
// from *exactly* the distributions the correctness lemmas assume, not
// merely have the right means.

#include <gtest/gtest.h>

#include <map>

#include "common/math_util.h"
#include "cqa/symbolic_space.h"
#include "storage/block_index.h"
#include "storage/repairs.h"
#include "natural_sampler.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::NaturalSampler;

TEST(ChiSquareTest, StatisticBasics) {
  // Perfect fit has statistic 0.
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({25, 25, 25, 25},
                                      {0.25, 0.25, 0.25, 0.25}),
                   0.0);
  // Known example: observed (10, 20, 30) against uniform over 60 draws.
  double stat = ChiSquareStatistic({10, 20, 30}, {1.0 / 3, 1.0 / 3, 1.0 / 3});
  EXPECT_NEAR(stat, 10.0, 1e-9);
}

TEST(ChiSquareTest, CriticalValuesAreSane) {
  // Reference 0.999-quantiles: df=1 -> 10.83, df=5 -> 20.52, df=10 -> 29.59.
  EXPECT_NEAR(ChiSquareCriticalValue(1), 10.83, 1.2);
  EXPECT_NEAR(ChiSquareCriticalValue(5), 20.52, 0.8);
  EXPECT_NEAR(ChiSquareCriticalValue(10), 29.59, 0.8);
}

TEST(DistributionTest, RngUniformIntIsUniform) {
  Rng rng(1);
  std::vector<size_t> counts(10, 0);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) ++counts[rng.UniformInt(0, 9)];
  std::vector<double> expected(10, 0.1);
  EXPECT_LT(ChiSquareStatistic(counts, expected),
            ChiSquareCriticalValue(9));
}

TEST(DistributionTest, WeightedIndexMatchesWeights) {
  Rng rng(2);
  std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  std::vector<size_t> counts(4, 0);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  std::vector<double> expected{0.1, 0.2, 0.3, 0.4};
  EXPECT_LT(ChiSquareStatistic(counts, expected),
            ChiSquareCriticalValue(3));
}

TEST(DistributionTest, NaturalSamplerDrawsUniformDatabases) {
  // The natural space of a 2x3 block structure has 6 databases; the
  // sampler's internal choice must be uniform. We observe it through the
  // indicator pattern across a synopsis whose images distinguish all 6.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  const Synopsis s = builder.Finish();
  // One image per database: indicator = 1 iff that database is drawn.
  // Instead of instrumenting the sampler, test each singleton image's hit
  // frequency: P(image {(0,a),(1,b)} ⊆ I) = 1/6 for each (a, b).
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      SynopsisBuilder builder;
      builder.AddBlock(Synopsis::Block{2, 0, 0});
      builder.AddBlock(Synopsis::Block{3, 0, 1});
      builder.AddImage({{0, a}, {1, b}});
      const Synopsis single = builder.Finish();
      NaturalSampler sampler(&single);
      Rng rng(10 + a * 3 + b);
      size_t hits = 0;
      const size_t n = 60000;
      for (size_t i = 0; i < n; ++i) hits += sampler.Draw(rng) > 0.5;
      std::vector<size_t> counts{hits, n - hits};
      std::vector<double> expected{1.0 / 6, 5.0 / 6};
      EXPECT_LT(ChiSquareStatistic(counts, expected),
                ChiSquareCriticalValue(1))
          << "database (" << a << "," << b << ")";
    }
  }
}

TEST(DistributionTest, SymbolicSpaceElementIsUniform) {
  // S• for this synopsis: image 0 pins block 0 (3 dbs), image 1 pins both
  // blocks (1 db) -> |S•| = 4 elements, each with probability 1/4.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 1}, {1, 2}});
  const Synopsis s = builder.Finish();
  SymbolicSpace space(&s);
  Rng rng(3);
  std::map<std::pair<size_t, std::vector<uint32_t>>, size_t> counts;
  const size_t n = 80000;
  Synopsis::Choice choice;
  for (size_t i = 0; i < n; ++i) {
    size_t idx = space.SampleElement(rng, &choice);
    ++counts[{idx, choice}];
  }
  ASSERT_EQ(counts.size(), 4u);
  std::vector<size_t> observed;
  for (const auto& [key, count] : counts) observed.push_back(count);
  std::vector<double> expected(4, 0.25);
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCriticalValue(3));
}

TEST(AliasTableTest, MassMatchesCumulativeSearchExactly) {
  // The alias table must encode the same distribution the old
  // cumulative-prefix binary search drew from: P(i) = w_i / W. With the
  // search, P(i) is the normalized weight by construction; here we
  // reconstruct each image's selection mass from the table — its own
  // column's acceptance probability plus the residual of every column
  // aliased to it, all over n columns — and compare against w_i / W.
  Rng gen_rng(31337);
  for (int t = 0; t < 8; ++t) {
    Synopsis s = testing::MakeRandomSynopsis(gen_rng, 6, 5, 8, 4);
    SymbolicSpace space(&s);
    const std::vector<double>& w = space.weights();
    const size_t n = w.size();
    std::vector<double> mass(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
      ASSERT_GE(space.alias_prob()[k], 0.0);
      ASSERT_LE(space.alias_prob()[k], 1.0);
      ASSERT_LT(space.alias()[k], n);
      mass[k] += space.alias_prob()[k];
      mass[space.alias()[k]] += 1.0 - space.alias_prob()[k];
    }
    for (size_t i = 0; i < n; ++i) {
      double expected = w[i] / space.total_weight();
      EXPECT_NEAR(mass[i] / static_cast<double>(n), expected, 1e-12)
          << "image " << i << " of trial " << t;
    }
  }
}

TEST(AliasTableTest, SampleImageIndexPassesChiSquare) {
  // 1e5 alias draws against the normalized weights.
  Rng gen_rng(4096);
  Synopsis s = testing::MakeRandomSynopsis(gen_rng, 6, 5, 8, 4);
  SymbolicSpace space(&s);
  const std::vector<double>& w = space.weights();
  std::vector<size_t> counts(w.size(), 0);
  Rng rng(5);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) ++counts[space.SampleImageIndex(rng)];
  std::vector<double> expected;
  for (double wi : w) expected.push_back(wi / space.total_weight());
  EXPECT_LT(ChiSquareStatistic(counts, expected),
            ChiSquareCriticalValue(w.size() - 1));
}

TEST(DistributionTest, RepairSelectionViaSamplerIsUniform) {
  // End-to-end: repairs of Example 1.1 drawn through the natural space
  // cover all four repairs uniformly.
  testing::EmployeeFixture fx;
  BlockIndex index = BlockIndex::Build(*fx.db);
  Rng rng(4);
  std::map<std::pair<size_t, size_t>, size_t> counts;
  const size_t n = 40000;
  for (size_t i = 0; i < n; ++i) {
    size_t a = rng.UniformIndex(index.relation(0).block(0).size());
    size_t b = rng.UniformIndex(index.relation(0).block(1).size());
    ++counts[{a, b}];
  }
  ASSERT_EQ(counts.size(), 4u);
  std::vector<size_t> observed;
  for (const auto& [key, count] : counts) observed.push_back(count);
  EXPECT_LT(ChiSquareStatistic(observed, std::vector<double>(4, 0.25)),
            ChiSquareCriticalValue(3));
}

}  // namespace
}  // namespace cqa
