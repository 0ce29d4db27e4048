#include "cqa/synopsis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cqa/preprocess.h"
#include "test_util.h"

namespace cqa {
namespace {

/// A database for SynopsisEncoder: relation r has blocks of sizes
/// sizes[r], block b being the rows with key b.
struct BlockFixture {
  explicit BlockFixture(const std::vector<std::vector<int>>& sizes) {
    for (size_t r = 0; r < sizes.size(); ++r) {
      schema.AddRelation(RelationSchema(
          "r" + std::to_string(r),
          {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
    }
    db = std::make_unique<Database>(&schema);
    for (size_t r = 0; r < sizes.size(); ++r) {
      for (size_t b = 0; b < sizes[r].size(); ++b) {
        for (int t = 0; t < sizes[r][b]; ++t) {
          db->Insert("r" + std::to_string(r),
                     {Value(static_cast<int64_t>(b)), Value(t)});
        }
      }
    }
    index = db->block_index();
  }

  Schema schema;
  std::unique_ptr<Database> db;
  std::shared_ptr<const BlockIndex> index;
};

Synopsis TwoBlockSynopsis() {
  // Blocks of sizes 2 and 3; images {0:0}, {0:1, 1:2}.
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{2, 0, 0});
  b.AddBlock(Synopsis::Block{3, 0, 1});
  b.AddImage({{0, 0}});
  b.AddImage({{0, 1}, {1, 2}});
  return b.Finish();
}

TEST(SynopsisTest, BlockAndImageCounts) {
  Synopsis s = TwoBlockSynopsis();
  EXPECT_EQ(s.NumBlocks(), 2u);
  EXPECT_EQ(s.NumImages(), 2u);
  EXPECT_FALSE(s.Empty());
  EXPECT_TRUE(Synopsis().Empty());
}

TEST(SynopsisTest, LogDbSize) {
  Synopsis s = TwoBlockSynopsis();
  EXPECT_NEAR(s.LogDbSize(), std::log10(6.0), 1e-12);
}

TEST(SynopsisTest, ImageWeights) {
  Synopsis s = TwoBlockSynopsis();
  std::vector<double> w = s.ImageWeights();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 0.5, 1e-12);          // 1/|B0|.
  EXPECT_NEAR(w[1], 1.0 / 6.0, 1e-12);    // 1/(|B0|·|B1|).
  EXPECT_NEAR(s.SymbolicToNaturalFactor(), 0.5 + 1.0 / 6.0, 1e-12);
}

TEST(SynopsisTest, ImageContainment) {
  Synopsis s = TwoBlockSynopsis();
  // Choice (0, 2): contains image 0 (block0=0) but not image 1.
  EXPECT_TRUE(s.ImageContainedIn(0, {0, 2}));
  EXPECT_FALSE(s.ImageContainedIn(1, {0, 2}));
  EXPECT_TRUE(s.AnyImageContainedIn({0, 2}));
  // Choice (1, 2): image 1 only.
  EXPECT_FALSE(s.ImageContainedIn(0, {1, 2}));
  EXPECT_TRUE(s.ImageContainedIn(1, {1, 2}));
  // Choice (1, 0): neither.
  EXPECT_FALSE(s.AnyImageContainedIn({1, 0}));
}

TEST(SynopsisTest, ImagesAreASet) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{2, 0, 0});
  EXPECT_TRUE(b.AddImage({{0, 0}}));
  EXPECT_FALSE(b.AddImage({{0, 0}}));  // Duplicate.
  EXPECT_EQ(b.NumImages(), 1u);
  EXPECT_EQ(b.Finish().facts().size(), 1u);  // The repeat left no facts.
}

TEST(SynopsisTest, ImageFactsAreSortedAndDeduped) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{2, 0, 0});
  b.AddBlock(Synopsis::Block{2, 0, 1});
  b.AddImage({{1, 0}, {0, 1}, {1, 0}});
  const Synopsis s = b.Finish();
  const std::span<const Synopsis::ImageFact> image = s.image(0);
  ASSERT_EQ(image.size(), 2u);
  EXPECT_EQ(image[0].block, 0u);
  EXPECT_EQ(image[1].block, 1u);
}

// enc(syn) in CSR form: the images tile one packed fact array in order.
TEST(SynopsisTest, ImagesAreSpansOverOnePackedArray) {
  const Synopsis s = TwoBlockSynopsis();
  ASSERT_EQ(s.facts().size(), 3u);
  EXPECT_EQ(s.image(0).data(), s.facts().data());
  EXPECT_EQ(s.image(1).data(), s.facts().data() + 1);
  EXPECT_EQ(s.image(1).size(), 2u);
  EXPECT_EQ(s.facts()[2], (Synopsis::ImageFact{1, 2}));
}

TEST(SynopsisTest, FinishEmptiesTheBuilder) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{2, 0, 0});
  b.AddImage({{0, 1}});
  const Synopsis first = b.Finish();
  EXPECT_EQ(b.NumBlocks(), 0u);
  EXPECT_EQ(b.NumImages(), 0u);
  b.AddBlock(Synopsis::Block{3, 0, 0});
  EXPECT_TRUE(b.AddImage({{0, 1}}));  // Not a repeat of `first`'s image.
  EXPECT_EQ(first.NumImages(), 1u);
  EXPECT_EQ(b.Finish().blocks()[0].size, 3u);
}

// The dedup table must survive growth: many distinct images, each added
// twice, keep exactly one copy in insertion order.
TEST(SynopsisTest, DedupHoldsAcrossTableGrowth) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{1000, 0, 0});
  b.AddBlock(Synopsis::Block{7, 0, 1});
  for (uint32_t t = 0; t < 1000; ++t) {
    EXPECT_TRUE(b.AddImage({{0, t}, {1, t % 7}}));
  }
  for (uint32_t t = 0; t < 1000; ++t) {
    EXPECT_FALSE(b.AddImage({{1, t % 7}, {0, t}}));
  }
  const Synopsis s = b.Finish();
  ASSERT_EQ(s.NumImages(), 1000u);
  for (uint32_t t = 0; t < 1000; ++t) EXPECT_EQ(s.image(t)[0].tid, t);
}

// Database coordinates: a (relation, block) becomes the next local block
// on first sight, in the image's order, and keeps its number after. The
// next synopsis numbers the same blocks afresh.
TEST(SynopsisTest, GlobalImagesNumberBlocksByFirstAppearance) {
  const BlockFixture fx({{1, 3}, {1, 1, 2}});
  SynopsisEncoder encoder(*fx.index);
  // Images {r1.2:0}, {r0.1:1, r1.2:1} and the first again.
  const std::vector<GlobalFact> facts = {
      {1, 2, 0}, {0, 1, 1}, {1, 2, 1}, {1, 2, 0}};
  const std::vector<uint32_t> ends = {1, 3, 4};
  const Synopsis s = encoder.Encode(facts, ends);
  ASSERT_EQ(s.NumImages(), 2u);
  ASSERT_EQ(s.NumBlocks(), 2u);
  EXPECT_EQ(s.blocks()[0].relation_id, 1u);
  EXPECT_EQ(s.blocks()[0].block_id, 2u);
  EXPECT_EQ(s.blocks()[0].size, 2u);
  EXPECT_EQ(s.blocks()[1].relation_id, 0u);
  EXPECT_EQ(s.blocks()[1].size, 3u);
  // Image 1's facts are sorted by local block, not by relation.
  ASSERT_EQ(s.image(1).size(), 2u);
  EXPECT_EQ(s.image(1)[0], (Synopsis::ImageFact{0, 1}));
  EXPECT_EQ(s.image(1)[1], (Synopsis::ImageFact{1, 1}));

  const std::vector<GlobalFact> next = {{0, 1, 2}, {1, 2, 0}};
  const Synopsis t = encoder.Encode(next, std::vector<uint32_t>{2});
  ASSERT_EQ(t.NumBlocks(), 2u);
  EXPECT_EQ(t.blocks()[0].relation_id, 0u);
  EXPECT_EQ(t.blocks()[1].relation_id, 1u);
  EXPECT_EQ(t.image(0)[0], (Synopsis::ImageFact{0, 2}));
  EXPECT_EQ(t.image(0)[1], (Synopsis::ImageFact{1, 0}));
}

TEST(SynopsisTest, CanonicalizeImageSortsDedupsAndChecksConsistency) {
  std::vector<GlobalFact> image = {{2, 0, 1}, {0, 5, 0}, {2, 0, 1}};
  ASSERT_TRUE(CanonicalizeImage(&image));
  ASSERT_EQ(image.size(), 2u);
  EXPECT_EQ(image[0].relation_id, 0u);
  EXPECT_EQ(image[1].relation_id, 2u);
  std::vector<GlobalFact> conflict = {{2, 0, 1}, {2, 0, 2}};
  EXPECT_FALSE(CanonicalizeImage(&conflict));
}

TEST(SynopsisDeathTest, RejectsInconsistentImage) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{3, 0, 0});
  EXPECT_DEATH(b.AddImage({{0, 0}, {0, 1}}), "inconsistent image");
}

TEST(SynopsisDeathTest, RejectsOutOfRangeTid) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{2, 0, 0});
  EXPECT_DEATH(b.AddImage({{0, 5}}), "tid");
}

TEST(SynopsisDeathTest, RejectsEmptyImage) {
  SynopsisBuilder b;
  b.AddBlock(Synopsis::Block{2, 0, 0});
  EXPECT_DEATH(b.AddImage({}), "at least one fact");
}

TEST(SynopsisDeathTest, EncoderRejectsBlocksOutsideTheIndex) {
  const BlockFixture fx({{2, 1}});
  EXPECT_DEATH(
      {
        SynopsisEncoder encoder(*fx.index);
        encoder.Encode(std::vector<GlobalFact>{{0, 2, 0}},
                       std::vector<uint32_t>{1});
      },
      "block_id");
  EXPECT_DEATH(
      {
        SynopsisEncoder encoder(*fx.index);
        encoder.EncodeDistinct(std::vector<GlobalFact>{{1, 0, 0}}, 1);
      },
      "relation_id");
}

// EncodeDistinct skips only the duplicate check: blocks, fact order and
// offsets are those Encode builds from the same new images.
TEST(SynopsisTest, NewGlobalImagesEncodeAsDeduplicatedOnes) {
  const BlockFixture fx({{1, 3, 2}, {1, 1, 2}});
  const std::vector<GlobalFact> facts = {{0, 0, 0}, {1, 2, 1},
                                         {0, 1, 2}, {1, 2, 0},
                                         {0, 2, 1}, {1, 0, 0}};
  SynopsisEncoder checked(*fx.index), unchecked(*fx.index);
  const Synopsis a = checked.Encode(facts, std::vector<uint32_t>{2, 4, 6});
  const Synopsis b = unchecked.EncodeDistinct(facts, 2);
  EXPECT_EQ(a.DebugString(), b.DebugString());
  ASSERT_EQ(a.NumBlocks(), b.NumBlocks());
  for (size_t k = 0; k < a.NumBlocks(); ++k) {
    EXPECT_EQ(a.blocks()[k].relation_id, b.blocks()[k].relation_id);
    EXPECT_EQ(a.blocks()[k].block_id, b.blocks()[k].block_id);
  }
  ASSERT_EQ(b.NumImages(), 3u);
  EXPECT_TRUE(std::ranges::equal(a.facts(), b.facts()));
}

TEST(SynopsisDeathTest, OneBuilderChecksImagesOneWay) {
  EXPECT_DEATH(
      {
        SynopsisBuilder b;
        b.AddBlock(Synopsis::Block{2, 0, 0});
        b.AddImage({{0, 0}});
        b.AddNewImages(std::vector<Synopsis::ImageFact>{{0, 1}}, 1);
      },
      "builder that deduplicates images");
  EXPECT_DEATH(
      {
        SynopsisBuilder b;
        b.AddBlock(Synopsis::Block{2, 0, 0});
        b.AddNewImages(std::vector<Synopsis::ImageFact>{{0, 0}}, 1);
        b.AddImage({{0, 0}});
      },
      "given AddNewImages");
}

TEST(SynopsisTest, RandomSynopsesAreWellFormed) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Synopsis s = testing::MakeRandomSynopsis(rng, 6, 4, 5, 3);
    EXPECT_GE(s.NumImages(), 1u);
    double total = 0.0;
    for (double w : s.ImageWeights()) {
      EXPECT_GT(w, 0.0);
      EXPECT_LE(w, 1.0);
      total += w;
    }
    EXPECT_NEAR(s.SymbolicToNaturalFactor(), total, 1e-12);
  }
}

TEST(SynopsisTest, DebugStringMentionsStructure) {
  Synopsis s = TwoBlockSynopsis();
  std::string d = s.DebugString();
  EXPECT_NE(d.find("blocks=[2, 3]"), std::string::npos);
  EXPECT_NE(d.find("0:1 1:2"), std::string::npos);
}

}  // namespace
}  // namespace cqa
