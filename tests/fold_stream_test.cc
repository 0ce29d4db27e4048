// Differential stream test for the size-1 fold: the samplers and the
// coverage loop walk only the blocks of size >= 2, and must make exactly
// the draws of the full-block loops they replaced. The reference loops
// below visit every block with TidDigitPlan::Next, test containment with
// the naive Synopsis scan, and stop Natural at the first block that
// completes an image.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

}  // namespace
}  // namespace cqa
