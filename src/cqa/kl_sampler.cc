#include "cqa/kl_sampler.h"

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

KlSampler::KlSampler(const SymbolicSpace* space)
    : space_(space), index_(&space->synopsis()) {
  CQA_CHECK(space != nullptr);
}

double KlSampler::DrawImpl(Rng& rng) {
  size_t i = space_->SampleElement(rng, &scratch_);
  // Reject iff some j < i is contained in I: then i is not I's first
  // witness. A certain image lies in every I, so it rejects every i above
  // it up front; otherwise the index visits only images sharing a drawn
  // conflict fact and stops at the first completed prefix image.
  if (index_.first_certain_image() < i) return 0.0;
  bool rejected = index_.ForEachCompletedImage(
      scratch_, [i](uint32_t j) { return j < i; });
  if (rejected) return 0.0;
  // Acceptance implies block-membership: the drawn database I must
  // actually contain H_i, otherwise the 1/Σw normalization is wrong.
  CQA_AUDIT(audit::CheckSampledElement, *space_, i, scratch_);
  return 1.0;
}

double KlSampler::Draw(Rng& rng) {
  CQA_OBS_COUNT("sampler.kl.draws");
  double v = DrawImpl(rng);
  if (v == 1.0) CQA_OBS_COUNT("sampler.kl.accepts");
  return v;
}

void KlSampler::DrawBatch(Rng& rng, size_t n, double* out) {
  size_t accepts = 0;
  for (size_t k = 0; k < n; ++k) {
    out[k] = DrawImpl(rng);
    accepts += out[k] == 1.0 ? 1 : 0;
  }
  CQA_OBS_COUNT_N("sampler.kl.draws", n);
  CQA_OBS_COUNT_N("sampler.kl.accepts", accepts);
}

}  // namespace cqa
