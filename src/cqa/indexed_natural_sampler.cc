#include "cqa/indexed_natural_sampler.h"

#include "common/macros.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"

namespace cqa {

IndexedNaturalSampler::IndexedNaturalSampler(const Synopsis* synopsis)
    : synopsis_(synopsis), index_(synopsis), digits_(synopsis) {
  CQA_CHECK(synopsis != nullptr);
  CQA_CHECK_MSG(!synopsis->Empty(), "natural sampler requires H != {}");
}

double IndexedNaturalSampler::DrawImpl(Rng& rng) {
  // resize zero-fills: size-1 entries hold their only tid, 0, for good.
  scratch_.resize(synopsis_->NumBlocks());
  index_.BeginDraw();
  TidDigitPlan::Stream stream;
  // The full block scan would stop at the first block that completes an
  // image, i.e. at `stop`, the smallest last block of any contained
  // image. Size-1 blocks take no entropy, so drawing just the conflict
  // blocks up to `stop` consumes the same engine words. `stop` starts at
  // the certain images' and shrinks as conflict facts complete images.
  uint32_t witness = index_.certain_witness();
  uint32_t stop = witness == ImageIndex::kNone ? ImageIndex::kNone
                                                : index_.last_block(witness);
  for (uint32_t b : digits_.conflict_blocks()) {
    if (b > stop) break;
    const uint32_t tid = digits_.Next(rng, b, &stream);
    scratch_[b] = tid;
    index_.AddFact(b, tid, [&](uint32_t image) {
      if (index_.last_block(image) < stop) {
        stop = index_.last_block(image);
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

double IndexedNaturalSampler::Draw(Rng& rng) {
  CQA_OBS_COUNT("sampler.indexed_natural.draws");
  double v = DrawImpl(rng);
  if (v == 1.0) CQA_OBS_COUNT("sampler.indexed_natural.hits");
  return v;
}

void IndexedNaturalSampler::DrawBatch(Rng& rng, size_t n, double* out) {
  size_t hits = 0;
  for (size_t k = 0; k < n; ++k) {
    out[k] = DrawImpl(rng);
    hits += out[k] == 1.0 ? 1 : 0;
  }
  CQA_OBS_COUNT_N("sampler.indexed_natural.draws", n);
  CQA_OBS_COUNT_N("sampler.indexed_natural.hits", hits);
}

}  // namespace cqa
