#include "cqa/klm_sampler.h"

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

KlmSampler::KlmSampler(const SymbolicSpace* space)
    : space_(space), index_(&space->synopsis()) {
  CQA_CHECK(space != nullptr);
}

double KlmSampler::DrawImpl(Rng& rng, size_t* witnesses) {
  size_t i = space_->SampleElement(rng, &scratch_);
  // Acceptance implies block-membership: H_i ⊆ I guarantees the
  // multiplicity count below finds k >= 1 covering images.
  CQA_AUDIT(audit::CheckSampledElement, *space_, i, scratch_);
  // Certain images witness every I; the index counts the others.
  size_t k = index_.num_certain_images();
  index_.ForEachCompletedImage(scratch_, [&k](uint32_t) {
    ++k;
    return false;  // Count every witness; never stop early.
  });
  CQA_CHECK(k >= 1);  // (i, I) ∈ S• implies H_i ⊆ I.
  *witnesses += k;
  return 1.0 / static_cast<double>(k);
}

double KlmSampler::Draw(Rng& rng) {
  CQA_OBS_COUNT("sampler.klm.draws");
  size_t witnesses = 0;
  double v = DrawImpl(rng, &witnesses);
  // k = images covering the drawn database (always >= 1 for KLM).
  CQA_OBS_COUNT_N("sampler.klm.accepts", witnesses);
  return v;
}

void KlmSampler::DrawBatch(Rng& rng, size_t n, double* out) {
  size_t witnesses = 0;
  for (size_t k = 0; k < n; ++k) {
    out[k] = DrawImpl(rng, &witnesses);
  }
  CQA_OBS_COUNT_N("sampler.klm.draws", n);
  CQA_OBS_COUNT_N("sampler.klm.accepts", witnesses);
}

}  // namespace cqa
