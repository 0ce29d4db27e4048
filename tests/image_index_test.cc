#include "cqa/image_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeRandomSynopsis;

/// Draws a uniformly random full choice for the synopsis.
Synopsis::Choice RandomChoice(const Synopsis& s, Rng& rng) {
  Synopsis::Choice choice(s.blocks().size());
  for (size_t b = 0; b < choice.size(); ++b) {
    choice[b] = static_cast<uint32_t>(rng.UniformIndex(s.blocks()[b].size));
  }
  return choice;
}

/// The images with no fact in a block of size >= 2, ascending.
std::vector<uint32_t> CertainImages(const Synopsis& s) {
  std::vector<uint32_t> certain;
  for (uint32_t i = 0; i < s.NumImages(); ++i) {
    bool all_size1 = true;
    for (const Synopsis::ImageFact& f : s.image(i)) {
      all_size1 = all_size1 && s.blocks()[f.block].size == 1;
    }
    if (all_size1) certain.push_back(i);
  }
  return certain;
}

/// The contained-image set the index reports: the certain images plus
/// the completed ones, sorted.
std::vector<uint32_t> IndexedContained(const Synopsis& s, ImageIndex& index,
                                       const Synopsis::Choice& choice) {
  std::vector<uint32_t> contained = CertainImages(s);
  EXPECT_EQ(index.num_certain_images(), contained.size());
  index.ForEachCompletedImage(choice, [&](uint32_t image) {
    contained.push_back(image);
    return false;
  });
  std::sort(contained.begin(), contained.end());
  return contained;
}

/// The same set via the naive per-image containment scan.
std::vector<uint32_t> NaiveContained(const Synopsis& s,
                                     const Synopsis::Choice& choice) {
  std::vector<uint32_t> contained;
  for (uint32_t i = 0; i < s.NumImages(); ++i) {
    if (s.ImageContainedIn(i, choice)) contained.push_back(i);
  }
  return contained;
}

TEST(ImageIndexTest, MatchesNaiveContainmentScan) {
  Rng gen_rng(101);
  for (int t = 0; t < 10; ++t) {
    Synopsis s = MakeRandomSynopsis(gen_rng, 6, 4, 8, 4);
    ImageIndex index(&s);
    Rng rng(500 + t);
    for (int d = 0; d < 200; ++d) {
      Synopsis::Choice choice = RandomChoice(s, rng);
      EXPECT_EQ(IndexedContained(s, index, choice), NaiveContained(s, choice))
          << s.DebugString();
    }
  }
}

TEST(ImageIndexTest, GenerationStampsIsolateConsecutiveDraws) {
  // Re-running the same index must not leak hit counts between draws: a
  // choice processed twice in a row reports the same completions, and a
  // draw after a full-containment draw starts from zero hits.
  Rng gen_rng(202);
  Synopsis s = MakeRandomSynopsis(gen_rng, 5, 3, 6, 3);
  ImageIndex index(&s);
  Rng rng(7);
  for (int d = 0; d < 100; ++d) {
    Synopsis::Choice choice = RandomChoice(s, rng);
    std::vector<uint32_t> first = IndexedContained(s, index, choice);
    std::vector<uint32_t> second = IndexedContained(s, index, choice);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, NaiveContained(s, choice));
  }
}

TEST(ImageIndexTest, EarlyStopReturnsTrueAndHaltsScan) {
  // A one-fact image completes as soon as its fact is added; on_complete
  // returning true must stop the scan and surface the stop to the caller.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{2, 0, 1});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 0}, {1, 1}});
  const Synopsis s = builder.Finish();
  ImageIndex index(&s);
  size_t calls = 0;
  bool stopped = index.ForEachCompletedImage({0, 1}, [&](uint32_t image) {
    ++calls;
    EXPECT_EQ(image, 0u);  // Image 0 completes first (single fact).
    return true;
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(calls, 1u);
}

TEST(TidDigitPlanTest, DigitsAreUniformPerBlock) {
  // The packed extraction must stay uniform within every block even when
  // many tids come out of one engine word: 3 * 4 * 5 * 1 * 16 fits in far
  // less than 32 bits, so one word feeds a whole pass.
  SynopsisBuilder builder;
  const uint32_t kSizes[] = {3, 4, 5, 1, 16};
  for (uint32_t b = 0; b < 5; ++b) {
    builder.AddBlock(Synopsis::Block{kSizes[b], 0, b});
  }
  builder.AddImage({{0, 0}});
  const Synopsis s = builder.Finish();
  TidDigitPlan plan(&s);
  Rng rng(4242);
  const int kDraws = 60000;
  std::vector<std::vector<int>> counts(5);
  for (size_t b = 0; b < 5; ++b) counts[b].assign(kSizes[b], 0);
  for (int d = 0; d < kDraws; ++d) {
    TidDigitPlan::Stream stream;
    for (size_t b = 0; b < 5; ++b) {
      uint32_t tid = plan.Next(rng, b, &stream);
      ASSERT_LT(tid, kSizes[b]);
      ++counts[b][tid];
    }
  }
  for (size_t b = 0; b < 5; ++b) {
    const double expected = double(kDraws) / double(kSizes[b]);
    for (size_t t = 0; t < kSizes[b]; ++t) {
      // 5 sigma of a binomial around the uniform expectation.
      const double sigma = std::sqrt(expected * (1.0 - 1.0 / kSizes[b]));
      EXPECT_NEAR(counts[b][t], expected, 5.0 * sigma + 1.0)
          << "block " << b << " tid " << t;
    }
  }
}

TEST(ImageIndexTest, IncrementalAddFactCompletesAtLastBlock) {
  // Feeding facts block by block (the indexed natural sampler's pattern)
  // completes an image exactly when its final fact arrives.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  builder.AddBlock(Synopsis::Block{2, 0, 2});
  builder.AddImage({{0, 1}, {2, 0}});
  const Synopsis s = builder.Finish();
  ImageIndex index(&s);
  index.BeginDraw();
  auto never = [](uint32_t) { return true; };
  EXPECT_FALSE(index.AddFact(0, 1, never));  // 1 of 2 facts.
  EXPECT_FALSE(index.AddFact(1, 2, never));  // Unrelated block.
  EXPECT_TRUE(index.AddFact(2, 0, never));   // Completes the image.
}

TEST(ImageIndexTest, AddFactOnSize1BlockIsNoOp) {
  // A size-1 block's fact is in every database, so no list holds it: the
  // image below completes on its one conflict fact alone.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{1, 0, 0});
  builder.AddBlock(Synopsis::Block{2, 0, 1});
  builder.AddImage({{0, 0}, {1, 1}});
  const Synopsis s = builder.Finish();
  ImageIndex index(&s);
  index.BeginDraw();
  size_t calls = 0;
  auto count = [&](uint32_t) {
    ++calls;
    return false;
  };
  EXPECT_FALSE(index.AddFact(0, 0, count));
  EXPECT_EQ(calls, 0u);
  EXPECT_FALSE(index.AddFact(1, 1, count));
  EXPECT_EQ(calls, 1u);
}

TEST(ImageIndexTest, CertainImageIsReportedOnEveryChoice) {
  // Image 1 lies wholly in the size-1 block 1: every database contains
  // it. Check all six databases against the naive scan.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{1, 0, 1});
  builder.AddBlock(Synopsis::Block{3, 0, 2});
  builder.AddImage({{0, 1}, {2, 0}});
  builder.AddImage({{1, 0}});
  builder.AddImage({{0, 0}, {1, 0}});
  const Synopsis s = builder.Finish();
  ImageIndex index(&s);
  EXPECT_EQ(index.num_certain_images(), 1u);
  EXPECT_EQ(index.first_certain_image(), 1u);
  EXPECT_EQ(index.certain_witness(), 1u);
  EXPECT_EQ(index.last_block(1), 1u);
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t c = 0; c < 3; ++c) {
      const Synopsis::Choice choice = {a, 0, c};
      const std::vector<uint32_t> contained =
          IndexedContained(s, index, choice);
      EXPECT_EQ(contained, NaiveContained(s, choice));
      EXPECT_TRUE(std::binary_search(contained.begin(), contained.end(), 1u));
    }
  }
}

TEST(ImageIndexTest, TidsAboveTheLargestPinnedOneCompleteNothing) {
  // Every conflict block is larger than its largest pinned tid + 1, so
  // most drawn tids fall past the block's own cells and must find its
  // empty one, not the next block's lists. Check all 120 databases.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{5, 0, 0});
  builder.AddBlock(Synopsis::Block{4, 0, 1});
  builder.AddBlock(Synopsis::Block{1, 0, 2});
  builder.AddBlock(Synopsis::Block{6, 0, 3});
  builder.AddImage({{0, 1}, {1, 0}});
  builder.AddImage({{1, 2}, {3, 0}});
  builder.AddImage({{1, 0}});
  builder.AddImage({{0, 1}, {2, 0}, {3, 0}});
  const Synopsis s = builder.Finish();
  ImageIndex index(&s);
  for (uint32_t a = 0; a < 5; ++a) {
    for (uint32_t b = 0; b < 4; ++b) {
      for (uint32_t d = 0; d < 6; ++d) {
        const Synopsis::Choice choice = {a, b, 0, d};
        EXPECT_EQ(IndexedContained(s, index, choice),
                  NaiveContained(s, choice))
            << a << " " << b << " " << d;
      }
    }
  }
}

TEST(ImageIndexTest, CellsPast32BitsStopBeforeAllocating) {
  // A block's cells run up to its largest pinned tid, plus an empty one:
  // 2^32 - 2 cells for this block, so with the size-1 blocks' cell and
  // the end offset the layout passes 2^32 entries. The constructor must
  // stop at its check, before it allocates the offsets.
  SynopsisBuilder one;
  one.AddBlock(Synopsis::Block{UINT32_MAX, 0, 0});
  one.AddImage({{0, UINT32_MAX - 3}});
  const Synopsis huge_tid = one.Finish();
  EXPECT_DEATH(ImageIndex index(&huge_tid), "image index past 2\\^32 cells");
  // Two blocks whose cells only add up past 2^32.
  SynopsisBuilder two;
  two.AddBlock(Synopsis::Block{UINT32_MAX, 0, 0});
  two.AddBlock(Synopsis::Block{UINT32_MAX, 0, 1});
  two.AddImage({{0, uint32_t{1} << 31}});
  two.AddImage({{1, uint32_t{1} << 31}});
  const Synopsis two_blocks = two.Finish();
  EXPECT_DEATH(ImageIndex index(&two_blocks),
               "image index past 2\\^32 cells");
}

}  // namespace
}  // namespace cqa
