#include "cqa/symbolic_space.h"

#include <algorithm>

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

SymbolicSpace::SymbolicSpace(const Synopsis* synopsis)
    : synopsis_(synopsis) {
  CQA_CHECK(synopsis != nullptr);
  CQA_CHECK_MSG(!synopsis->Empty(), "symbolic space requires H != {}");
  CQA_OBS_COUNT("symbolic_space.builds");
  CQA_OBS_OBSERVE("symbolic_space.num_images", synopsis->NumImages());
  CQA_OBS_OBSERVE("symbolic_space.num_blocks", synopsis->blocks().size());
  // One pass over the images computes each weight w_i = Π 1/|block| (the
  // arithmetic of Synopsis::ImageWeights, which the audit compares
  // against bit for bit) and copies the image's facts into the flat pin
  // array. A fact is kept only when its block has size >= 2: the write
  // position advances by that test, so there is no per-fact branch.
  const std::span<const Synopsis::Block> blocks = synopsis->blocks();
  const size_t n = synopsis->NumImages();
  weights_.resize(n);
  pins_.resize(synopsis->facts().size());
  pin_offsets_.resize(n + 1);
  uint32_t end = 0;
  for (size_t i = 0; i < n; ++i) {
    pin_offsets_[i] = end;
    double w = 1.0;
    for (const Synopsis::ImageFact& f : synopsis->image(i)) {
      w /= static_cast<double>(blocks[f.block].size);
      pins_[end] = f;
      end += blocks[f.block].size >= 2;
    }
    weights_[i] = w;
  }
  pin_offsets_[n] = end;
  pins_.resize(end);
  double acc = 0.0;
  for (double w : weights_) {
    CQA_CHECK(w > 0.0);
    acc += w;
  }
  total_weight_ = acc;

  // Vose's alias method: scale every weight to mean 1, then pair each
  // under-full column (scaled < 1) with an over-full donor image that
  // absorbs the column's residual mass. Every column ends up holding at
  // most two images, so a draw is one uniform index + one coin flip.
  alias_prob_.assign(n, 1.0);
  alias_.resize(n);
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  const double scale = static_cast<double>(n) / total_weight_;
  for (uint32_t i = 0; i < n; ++i) {
    alias_[i] = i;
    scaled[i] = weights_[i] * scale;
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    alias_prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers on either list hold (up to FP rounding) exactly their own
  // unit of mass: their columns keep alias_prob_ = 1, alias_ = self.
  alias_cut_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    alias_cut_[k] = alias_prob_[k] >= 1.0
                        ? ~0ull
                        : static_cast<uint64_t>(alias_prob_[k] * 0x1p64);
  }
  digits_ = TidDigitPlan(synopsis);
  CQA_AUDIT(audit::CheckSymbolicSpace, *this);
}

size_t SymbolicSpace::SampleElement(Rng& rng,
                                    Synopsis::Choice* choice) const {
  // Pick the image index i with probability w_i / Σ w_j (alias draw).
  size_t i = SampleImageIndex(rng);

  // Pick I uniformly among the databases containing H_i: every block is
  // free except those pinned by the image. The tid draws come packed out
  // of the digit plan — a couple of engine words for the whole sample
  // instead of one per block. Size-1 blocks are skipped: their entry
  // stays 0, and the plan would take no entropy from them anyway.
  choice->resize(synopsis_->NumBlocks());
  TidDigitPlan::Stream stream;
  for (uint32_t b : digits_.conflict_blocks()) {
    (*choice)[b] = digits_.Next(rng, b, &stream);
  }
  for (uint32_t p = pin_offsets_[i]; p < pin_offsets_[i + 1]; ++p) {
    (*choice)[pins_[p].block] = pins_[p].tid;
  }
  // (i, I) ∈ S• by construction: H_i's facts were just pinned into I.
  CQA_AUDIT(audit::CheckSampledElement, *this, i, *choice);
  return i;
}

}  // namespace cqa
