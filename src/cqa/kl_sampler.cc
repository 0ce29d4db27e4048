#include "cqa/kl_sampler.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

KlSampler::KlSampler(const SymbolicSpace* space) : space_(space) {
  CQA_CHECK(space != nullptr);
  if (ConflictWorldTable::Eligible(space->synopsis())) {
    table_.emplace(&space->synopsis());
  } else {
    index_.emplace(&space->synopsis());
  }
}

double KlSampler::DrawImpl(Rng& rng) {
  size_t i = space_->SampleElement(rng, &scratch_);
  // Reject iff some j < i is contained in I: then i is not I's first
  // witness. A certain image lies in every I, so it rejects every i above
  // it up front; otherwise the index visits only images sharing a drawn
  // conflict fact and stops at the first completed prefix image.
  if (index_->first_certain_image() < i) return 0.0;
  bool rejected = index_->ForEachCompletedImage(
      scratch_, [i](uint32_t j) { return j < i; });
  if (rejected) return 0.0;
  // Acceptance implies block-membership: the drawn database I must
  // actually contain H_i, otherwise the 1/Σw normalization is wrong.
  CQA_AUDIT(audit::CheckSampledElement, *space_, i, scratch_);
  return 1.0;
}

double KlSampler::TableDraw(Rng& rng) {
  const auto [i, mask] = table_->DrawSymbolic(*space_, rng);
  // Bit i is set, so the lowest set bit is at most i.
  return static_cast<size_t>(std::countr_zero(mask)) == i ? 1.0 : 0.0;
}

double KlSampler::Draw(Rng& rng) {
  CQA_OBS_COUNT("sampler.kl.draws");
  double v = table_ ? TableDraw(rng) : DrawImpl(rng);
  if (v == 1.0) CQA_OBS_COUNT("sampler.kl.accepts");
  return v;
}

void KlSampler::DrawBatch(Rng& rng, size_t n, double* out) {
  if (table_) {
    FillBatch(n, out, [&] { return TableDraw(rng); });
  } else {
    FillBatch(n, out, [&] { return DrawImpl(rng); });
  }
  CQA_OBS_COUNT_N("sampler.kl.draws", n);
  CQA_OBS_COUNT_N("sampler.kl.accepts", std::count(out, out + n, 1.0));
}

}  // namespace cqa
