// Differential stream test for the size-1 fold and the conflict-world
// tables: the samplers and the coverage loop walk only the blocks of size
// >= 2, or look a drawn world up in a ConflictWorldTable, and must make
// exactly the draws of the full-block loops they replaced. The reference
// loops below visit every block with TidDigitPlan::Next, test containment
// with the naive Synopsis scan, and stop Natural at the first block that
// completes an image. The random generator reaches both sampler paths;
// hand-made shapes straddle each bound of the table.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cqa/conflict_worlds.h"
#include "cqa/coverage.h"
#include "cqa/indexed_natural_sampler.h"
#include "cqa/kl_sampler.h"
#include "cqa/klm_sampler.h"
#include "cqa/symbolic_space.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeSynopsisWithSize1Share;

constexpr int kSynopsesPerShare = 200;
constexpr int kDrawsPerSampler = 100;
const double kSize1Shares[] = {0.0, 0.25, 0.5, 0.75, 1.0};

/// The largest block index among image i's facts.
uint32_t LastBlock(const Synopsis& s, size_t i) {
  return s.image(i).back().block;
}

/// Natural over every block: draw block b, then stop as soon as some
/// image whose last block is b lies in the drawn prefix.
double RefNaturalDraw(const Synopsis& s, const TidDigitPlan& plan, Rng& rng) {
  Synopsis::Choice choice(s.NumBlocks());
  TidDigitPlan::Stream stream;
  for (uint32_t b = 0; b < s.NumBlocks(); ++b) {
    choice[b] = plan.Next(rng, b, &stream);
    for (size_t i = 0; i < s.NumImages(); ++i) {
      if (LastBlock(s, i) == b && s.ImageContainedIn(i, choice)) return 1.0;
    }
  }
  return 0.0;
}

/// SampleElement over every block, pinning all of H_i's facts.
size_t RefSampleElement(const SymbolicSpace& space, const TidDigitPlan& plan,
                        Rng& rng, Synopsis::Choice* choice) {
  const Synopsis& s = space.synopsis();
  const size_t i = space.SampleImageIndex(rng);
  choice->assign(s.NumBlocks(), 0);
  TidDigitPlan::Stream stream;
  for (uint32_t b = 0; b < s.NumBlocks(); ++b) {
    (*choice)[b] = plan.Next(rng, b, &stream);
  }
  for (const Synopsis::ImageFact& f : s.image(i)) {
    (*choice)[f.block] = f.tid;
  }
  return i;
}

double RefKlDraw(const SymbolicSpace& space, const TidDigitPlan& plan,
                 Rng& rng) {
  Synopsis::Choice choice;
  const size_t i = RefSampleElement(space, plan, rng, &choice);
  for (size_t j = 0; j < i; ++j) {
    if (space.synopsis().ImageContainedIn(j, choice)) return 0.0;
  }
  return 1.0;
}

double RefKlmDraw(const SymbolicSpace& space, const TidDigitPlan& plan,
                  Rng& rng) {
  Synopsis::Choice choice;
  RefSampleElement(space, plan, rng, &choice);
  size_t k = 0;
  for (size_t j = 0; j < space.synopsis().NumImages(); ++j) {
    if (space.synopsis().ImageContainedIn(j, choice)) ++k;
  }
  return 1.0 / static_cast<double>(k);
}

/// The coverage loop over every block with the naive containment test,
/// counting only the inner draws made (no deadline).
CoverageResult RefCoverage(const SymbolicSpace& space,
                           const TidDigitPlan& plan, double epsilon,
                           double delta, Rng& rng) {
  const size_t h = space.synopsis().NumImages();
  const size_t budget = static_cast<size_t>(std::ceil(
      8.0 * (1.0 + epsilon) * static_cast<double>(h) * std::log(3.0 / delta) /
      ((1.0 - epsilon * epsilon / 8.0) * epsilon * epsilon)));
  CoverageResult result;
  Synopsis::Choice choice;
  size_t steps = 0, total = 0, trials = 0;
  // Like the real loop, a trial that ends on the last budgeted step is
  // followed by one more outer draw before the budget check stops it.
  for (bool done = false; !done;) {
    RefSampleElement(space, plan, rng, &choice);
    while (true) {
      if (steps == budget) {
        done = true;
        break;
      }
      ++steps;
      if (space.synopsis().ImageContainedIn(rng.UniformIndex(h), choice)) {
        total = steps;
        ++trials;
        break;
      }
    }
  }
  result.steps = steps;
  result.trials = trials;
  if (trials > 0) {
    result.normalized_estimate =
        static_cast<double>(total) /
        (static_cast<double>(h) * static_cast<double>(trials));
  }
  return result;
}

/// Runs `draw` and `ref` kDrawsPerSampler times on equal-seeded streams:
/// every value and the engine state after every draw must agree.
template <typename DrawFn, typename RefFn>
void ExpectSameStream(const Synopsis& s, uint64_t seed, const char* what,
                      DrawFn&& draw, RefFn&& ref) {
  Rng rng(seed), ref_rng(seed);
  for (int d = 0; d < kDrawsPerSampler; ++d) {
    ASSERT_EQ(draw(rng), ref(ref_rng))
        << what << " draw " << d << " on " << s.DebugString();
    ASSERT_TRUE(rng.engine() == ref_rng.engine())
        << what << " engine diverged at draw " << d << " on "
        << s.DebugString();
  }
}

/// A synopsis from the generator: 1-24 blocks of size up to 5 (enough
/// bits to force digit-plan refills), up to 8 images of up to 4 facts,
/// a quarter of them drawn wholly from size-1 blocks.
Synopsis GenerateSynopsis(Rng& gen, double size1_share) {
  const size_t num_blocks = 1 + gen.UniformIndex(24);
  return MakeSynopsisWithSize1Share(gen, num_blocks, 5, size1_share, 0.25, 8,
                                    4);
}

class FoldStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(FoldStreamTest, SamplersMatchFullBlockLoops) {
  const double share = kSize1Shares[GetParam()];
  Rng gen(7000 + GetParam());
  for (int t = 0; t < kSynopsesPerShare; ++t) {
    const Synopsis s = GenerateSynopsis(gen, share);
    const TidDigitPlan plan(&s);
    const uint64_t seed = 100000 * GetParam() + t;

    IndexedNaturalSampler natural(&s);
    ExpectSameStream(
        s, seed, "Natural", [&](Rng& rng) { return natural.Draw(rng); },
        [&](Rng& rng) { return RefNaturalDraw(s, plan, rng); });

    const SymbolicSpace space(&s);
    KlSampler kl(&space);
    ExpectSameStream(
        s, seed + 1, "KL", [&](Rng& rng) { return kl.Draw(rng); },
        [&](Rng& rng) { return RefKlDraw(space, plan, rng); });

    KlmSampler klm(&space);
    ExpectSameStream(
        s, seed + 2, "KLM", [&](Rng& rng) { return klm.Draw(rng); },
        [&](Rng& rng) { return RefKlmDraw(space, plan, rng); });
  }
}

TEST_P(FoldStreamTest, CoverageMatchesFullBlockLoop) {
  const double share = kSize1Shares[GetParam()];
  Rng gen(8000 + GetParam());
  for (int t = 0; t < kSynopsesPerShare; ++t) {
    const Synopsis s = GenerateSynopsis(gen, share);
    const TidDigitPlan plan(&s);
    const SymbolicSpace space(&s);
    const uint64_t seed = 200000 * GetParam() + t;
    Rng rng(seed), ref_rng(seed);
    const CoverageResult got = SelfAdjustingCoverage(space, 0.5, 0.5, rng);
    const CoverageResult want = RefCoverage(space, plan, 0.5, 0.5, ref_rng);
    ASSERT_EQ(got.normalized_estimate, want.normalized_estimate)
        << s.DebugString();
    ASSERT_EQ(got.steps, want.steps) << s.DebugString();
    ASSERT_EQ(got.trials, want.trials) << s.DebugString();
    ASSERT_EQ(got.timed_out, want.timed_out) << s.DebugString();
    ASSERT_TRUE(rng.engine() == ref_rng.engine()) << s.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Size1Shares, FoldStreamTest, ::testing::Range(0, 5));

// The synopses SamplersMatchFullBlockLoops draws (same generator seeds)
// take both paths: some have a conflict-world table, some ImageIndex.
TEST(FoldStreamPathsTest, GeneratorReachesBothPaths) {
  size_t table = 0, index = 0;
  for (int p = 0; p < 5; ++p) {
    Rng gen(7000 + p);
    for (int t = 0; t < kSynopsesPerShare; ++t) {
      const Synopsis s = GenerateSynopsis(gen, kSize1Shares[p]);
      ++(ConflictWorldTable::Eligible(s) ? table : index);
    }
  }
  EXPECT_GT(table, 0u);
  EXPECT_GT(index, 0u);
}

/// A synopsis over blocks of `sizes` whose images are `fixed` followed
/// by random distinct ones of 1-4 facts, up to `num_images` in all.
Synopsis MakeShape(Rng& gen, const std::vector<uint32_t>& sizes,
                   size_t num_images,
                   const std::vector<std::vector<Synopsis::ImageFact>>&
                       fixed = {}) {
  SynopsisBuilder builder;
  for (size_t b = 0; b < sizes.size(); ++b) {
    builder.AddBlock(Synopsis::Block{sizes[b], 0, static_cast<uint32_t>(b)});
  }
  for (const std::vector<Synopsis::ImageFact>& image : fixed) {
    builder.AddImage(image);
  }
  while (builder.NumImages() < num_images) {
    const size_t num_facts =
        1 + gen.UniformIndex(std::min<size_t>(4, sizes.size()));
    std::vector<Synopsis::ImageFact> facts;
    for (size_t b : gen.SampleWithoutReplacement(sizes.size(), num_facts)) {
      facts.push_back(Synopsis::ImageFact{
          static_cast<uint32_t>(b),
          static_cast<uint32_t>(gen.UniformIndex(sizes[b]))});
    }
    builder.AddImage(facts);
  }
  return builder.Finish();
}

struct Shape {
  std::string name;
  Synopsis synopsis;
  bool eligible;
};

/// One shape on each side of every bound of ConflictWorldTable.
std::vector<Shape> BoundShapes() {
  Rng gen(9000);
  std::vector<Shape> shapes;
  // 2·4·8·16·4 = 2^12 worlds, and 17·241 = 2^12 + 1.
  shapes.push_back(
      {"2^12 worlds", MakeShape(gen, {2, 1, 4, 8, 1, 16, 4}, 8), true});
  shapes.push_back({"2^12 + 1 worlds", MakeShape(gen, {17, 1, 241}, 8),
                    false});
  // 2·3·2·2·3·2 = 144 worlds.
  const std::vector<uint32_t> small = {2, 3, 1, 2, 2, 1, 3, 2};
  shapes.push_back({"63 images", MakeShape(gen, small, 63), true});
  shapes.push_back({"64 images", MakeShape(gen, small, 64), false});
  shapes.push_back(
      {"no conflict block", MakeShape(gen, {1, 1, 1, 1}, 3), true});
  // Image {0:0} is certain and ends at block 0, before conflict block 2:
  // Natural takes no word. Image {1:0, 3:0} is certain but ends after
  // conflict block 0: Natural takes the word and returns 1.
  shapes.push_back({"certain image before the first conflict block",
                    MakeShape(gen, {1, 1, 3, 2, 1}, 5, {{{0, 0}}}), true});
  shapes.push_back({"certain image after the first conflict block",
                    MakeShape(gen, {3, 1, 2, 1}, 5, {{{1, 0}, {3, 0}}}),
                    true});
  return shapes;
}

constexpr size_t kBatchChunks[] = {1, 17, 64, 174};  // 256 draws in all.

/// Draws through `sampler.DrawBatch` in the uneven chunks above and
/// through `ref` on an equal-seeded stream: every value and the engine
/// state after every chunk must agree.
template <typename RefFn>
void ExpectSameBatches(const Shape& shape, uint64_t seed, const char* what,
                       Sampler& sampler, RefFn&& ref) {
  Rng rng(seed), ref_rng(seed);
  std::vector<double> got;
  for (size_t chunk : kBatchChunks) {
    got.resize(chunk);
    sampler.DrawBatch(rng, chunk, got.data());
    for (size_t k = 0; k < chunk; ++k) {
      ASSERT_EQ(got[k], ref(ref_rng))
          << what << " batch of " << chunk << " on " << shape.name;
    }
    ASSERT_TRUE(rng.engine() == ref_rng.engine())
        << what << " engine diverged after a batch of " << chunk << " on "
        << shape.name;
  }
}

TEST(ConflictWorldBoundsTest, ShapesTakeTheirPath) {
  for (const Shape& shape : BoundShapes()) {
    EXPECT_EQ(ConflictWorldTable::Eligible(shape.synopsis), shape.eligible)
        << shape.name;
  }
}

// World(u) is the mixed-radix index of the digit plan's tids: a drawn
// world decodes to the tids TidDigitPlan::Next draws from the same word,
// and a pinned world to those of SampleElement's reference.
TEST(ConflictWorldBoundsTest, DrawnWorldsDecodeToTheDigitPlansTids) {
  for (const Shape& shape : BoundShapes()) {
    if (!shape.eligible) continue;
    const Synopsis& s = shape.synopsis;
    const TidDigitPlan plan(&s);
    const SymbolicSpace space(&s);
    const ConflictWorldTable table(&s);
    Synopsis::Choice got, want;
    for (uint64_t seed = 0; seed < 200; ++seed) {
      Rng rng(seed), ref_rng(seed);
      if (table.num_worlds() > 1) {
        table.Decode(table.DrawWorld(rng), &got);
        want.assign(s.NumBlocks(), 0);
        TidDigitPlan::Stream stream;
        for (uint32_t b : plan.conflict_blocks()) {
          want[b] = plan.Next(ref_rng, b, &stream);
        }
        ASSERT_EQ(got, want) << shape.name << " seed " << seed;
      }
      const size_t i = space.SampleImageIndex(rng);
      table.Decode(table.DrawPinnedWorld(rng, i), &got);
      ASSERT_EQ(i, RefSampleElement(space, plan, ref_rng, &want));
      ASSERT_EQ(got, want) << shape.name << " seed " << seed;
      ASSERT_TRUE(rng.engine() == ref_rng.engine()) << shape.name;
    }
  }
}

TEST(ConflictWorldBoundsTest, SamplersMatchFullBlockLoops) {
  uint64_t seed = 300000;
  for (const Shape& shape : BoundShapes()) {
    const Synopsis& s = shape.synopsis;
    const TidDigitPlan plan(&s);
    const SymbolicSpace space(&s);
    const auto ref_natural = [&](Rng& rng) {
      return RefNaturalDraw(s, plan, rng);
    };
    const auto ref_kl = [&](Rng& rng) { return RefKlDraw(space, plan, rng); };
    const auto ref_klm = [&](Rng& rng) {
      return RefKlmDraw(space, plan, rng);
    };

    IndexedNaturalSampler natural(&s);
    ExpectSameStream(
        s, ++seed, "Natural", [&](Rng& rng) { return natural.Draw(rng); },
        ref_natural);
    ExpectSameBatches(shape, ++seed, "Natural", natural, ref_natural);

    KlSampler kl(&space);
    ExpectSameStream(
        s, ++seed, "KL", [&](Rng& rng) { return kl.Draw(rng); }, ref_kl);
    ExpectSameBatches(shape, ++seed, "KL", kl, ref_kl);

    KlmSampler klm(&space);
    ExpectSameStream(
        s, ++seed, "KLM", [&](Rng& rng) { return klm.Draw(rng); }, ref_klm);
    ExpectSameBatches(shape, ++seed, "KLM", klm, ref_klm);

    Rng rng(++seed), ref_rng(seed);
    const CoverageResult got = SelfAdjustingCoverage(space, 0.5, 0.5, rng);
    const CoverageResult want = RefCoverage(space, plan, 0.5, 0.5, ref_rng);
    EXPECT_EQ(got.normalized_estimate, want.normalized_estimate)
        << shape.name;
    EXPECT_EQ(got.steps, want.steps) << shape.name;
    EXPECT_EQ(got.trials, want.trials) << shape.name;
    EXPECT_TRUE(rng.engine() == ref_rng.engine()) << shape.name;
  }
}

}  // namespace
}  // namespace cqa
