#include "cqa/klm_sampler.h"

#include <bit>

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

KlmSampler::KlmSampler(const SymbolicSpace* space) : space_(space) {
  CQA_CHECK(space != nullptr);
  if (ConflictWorldTable::Eligible(space->synopsis())) {
    table_.emplace(&space->synopsis());
  } else {
    index_.emplace(&space->synopsis());
  }
}

double KlmSampler::DrawImpl(Rng& rng, size_t* witnesses) {
  size_t i = space_->SampleElement(rng, &scratch_);
  // Acceptance implies block-membership: H_i ⊆ I guarantees the
  // multiplicity count below finds k >= 1 covering images.
  CQA_AUDIT(audit::CheckSampledElement, *space_, i, scratch_);
  // Certain images witness every I; the index counts the others.
  size_t k = index_->num_certain_images();
  index_->ForEachCompletedImage(scratch_, [&k](uint32_t) {
    ++k;
    return false;  // Count every witness; never stop early.
  });
  CQA_CHECK(k >= 1);  // (i, I) ∈ S• implies H_i ⊆ I.
  *witnesses += k;
  return 1.0 / static_cast<double>(k);
}

double KlmSampler::TableDraw(Rng& rng, size_t* witnesses) {
  const uint64_t mask = table_->DrawSymbolic(*space_, rng).mask;
  const size_t k = static_cast<size_t>(std::popcount(mask)) - 1;  // kFilled.
  *witnesses += k;
  return 1.0 / static_cast<double>(k);
}

void KlmSampler::DrawBatch(Rng& rng, size_t n, double* out) {
  size_t witnesses = 0;
  if (table_) {
    FillBatch(n, out, [&] { return TableDraw(rng, &witnesses); });
  } else {
    FillBatch(n, out, [&] { return DrawImpl(rng, &witnesses); });
  }
  CQA_OBS_COUNT_N("sampler.klm.draws", n);
  CQA_OBS_COUNT_N("sampler.klm.accepts", witnesses);
}

}  // namespace cqa
