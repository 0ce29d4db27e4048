#include "cqa/indexed_natural_sampler.h"

#include <algorithm>

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

IndexedNaturalSampler::IndexedNaturalSampler(const Synopsis* synopsis)
    : synopsis_(synopsis) {
  CQA_CHECK(synopsis != nullptr);
  CQA_CHECK_MSG(!synopsis->Empty(), "natural sampler requires H != {}");
  if (ConflictWorldTable::Eligible(*synopsis)) {
    table_.emplace(synopsis);
  } else {
    index_.emplace(synopsis);
    digits_ = TidDigitPlan(synopsis);
  }
}

double IndexedNaturalSampler::DrawImpl(Rng& rng) {
  // resize zero-fills: size-1 entries hold their only tid, 0, for good.
  scratch_.resize(synopsis_->NumBlocks());
  index_->BeginDraw();
  TidDigitPlan::Stream stream;
  // The full block scan would stop at the first block that completes an
  // image, i.e. at `stop`, the smallest last block of any contained
  // image. Size-1 blocks take no entropy, so drawing just the conflict
  // blocks up to `stop` consumes the same engine words. `stop` starts at
  // the certain images' and shrinks as conflict facts complete images.
  uint32_t witness = index_->certain_witness();
  uint32_t stop = witness == ImageIndex::kNone ? ImageIndex::kNone
                                                : index_->last_block(witness);
  for (uint32_t b : digits_.conflict_blocks()) {
    if (b > stop) break;
    const uint32_t tid = digits_.Next(rng, b, &stream);
    scratch_[b] = tid;
    index_->AddFact(b, tid, [&](uint32_t image) {
      if (index_->last_block(image) < stop) {
        stop = index_->last_block(image);
        witness = image;
      }
      return stop == b;  // Nothing drawn later can lower `stop` below b.
    });
  }
  if (witness != ImageIndex::kNone) {
    CQA_AUDIT(audit::CheckImageInPrefix, *synopsis_, witness, scratch_,
              stop + 1);
    return 1.0;
  }
  // Cross-validate the inverted-index miss against the naive scan.
  CQA_AUDIT(audit::CheckNaturalDraw, *synopsis_, scratch_, 0.0);
  return 0.0;
}

double IndexedNaturalSampler::TableDraw(Rng& rng) {
  if (table_->certain_before_conflict()) return 1.0;
  // Some image lies in the drawn world iff its mask has a bit besides
  // kFilled; the index path stops early on the same answer.
  const uint64_t mask = table_->Lookup(table_->DrawWorld(rng));
  return mask != ConflictWorldTable::kFilled ? 1.0 : 0.0;
}

double IndexedNaturalSampler::Draw(Rng& rng) {
  CQA_OBS_COUNT("sampler.indexed_natural.draws");
  double v = table_ ? TableDraw(rng) : DrawImpl(rng);
  if (v == 1.0) CQA_OBS_COUNT("sampler.indexed_natural.hits");
  return v;
}

void IndexedNaturalSampler::DrawBatch(Rng& rng, size_t n, double* out) {
  if (table_) {
    FillBatch(n, out, [&] { return TableDraw(rng); });
  } else {
    FillBatch(n, out, [&] { return DrawImpl(rng); });
  }
  CQA_OBS_COUNT_N("sampler.indexed_natural.draws", n);
  CQA_OBS_COUNT_N("sampler.indexed_natural.hits",
                  std::count(out, out + n, 1.0));
}

}  // namespace cqa
