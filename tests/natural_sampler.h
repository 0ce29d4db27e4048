// Test oracle: the plain SampleNatural over the natural space db(B), a
// full scan of H per draw. The library's Natural scheme runs on
// IndexedNaturalSampler; the tests cross-validate it against this.
#ifndef CQABENCH_TESTS_NATURAL_SAMPLER_H_
#define CQABENCH_TESTS_NATURAL_SAMPLER_H_

#include <span>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "cqa/sampler.h"
#include "cqa/synopsis.h"

namespace cqa {
namespace testing {

/// Sampler 1 (SampleNatural): draws I uniformly from the natural sampling
/// space S = db(B), one engine word per block, and returns 1 iff some
/// image H ∈ H is contained in I (the naive scan). 1-good:
/// E[Draw] = R(H, B) (Lemma 4.3).
class NaturalSampler : public Sampler {
 public:
  /// The synopsis must be non-empty and outlive the sampler.
  explicit NaturalSampler(const Synopsis* synopsis) : synopsis_(synopsis) {
    CQA_CHECK(synopsis != nullptr);
    CQA_CHECK_MSG(!synopsis->Empty(), "natural sampler requires H != {}");
  }

  double Draw(Rng& rng) override {
    const std::span<const Synopsis::Block> blocks = synopsis_->blocks();
    scratch_.resize(blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b) {
      scratch_[b] = static_cast<uint32_t>(rng.UniformIndex(blocks[b].size));
    }
    return synopsis_->AnyImageContainedIn(scratch_) ? 1.0 : 0.0;
  }

  void DrawBatch(Rng& rng, size_t n, double* out) override {
    for (size_t k = 0; k < n; ++k) out[k] = Draw(rng);
  }

  double GoodnessFactor() const override { return 1.0; }
  const char* name() const override { return "SampleNatural"; }

 private:
  const Synopsis* synopsis_;
  Synopsis::Choice scratch_;
};

}  // namespace testing
}  // namespace cqa

#endif  // CQABENCH_TESTS_NATURAL_SAMPLER_H_
