// Index-accelerated natural sampler: per draw it touches only the blocks
// of size >= 2 and the images sharing a drawn fact, not all of H.
#ifndef CQABENCH_CQA_INDEXED_NATURAL_SAMPLER_H_
#define CQABENCH_CQA_INDEXED_NATURAL_SAMPLER_H_

#include <optional>

#include "cqa/conflict_worlds.h"
#include "cqa/image_index.h"
#include "cqa/sampler.h"
#include "cqa/synopsis.h"

namespace cqa {

/// Sampler 1 (SampleNatural) on the shared ImageIndex: draws I uniformly
/// from the natural space db(B) and returns 1 iff some image H ∈ H is
/// contained in I. 1-good: E[Draw] = R(H, B) (Lemma 4.3).
///
/// The naive sampler answers "does some image survive the drawn
/// database" by scanning all of H — Θ(Σ_i |H_i|) per draw. This one
/// indexes images by (block, tid) and draws only the conflict blocks
/// (size >= 2), block by block, counting per-image hits of the drawn
/// facts. It stops once no later block can change the outcome: at the
/// smallest last block of any image found contained so far, certain
/// images (wholly in size-1 blocks) included. That is exactly where a
/// scan over every block would stop, so the engine words consumed are
/// the same. Per-draw cost is Θ(#conflict blocks drawn +
/// Σ_{drawn conflict facts} |images containing that fact|), a large win
/// on the big, sparse H sets of the Boolean scenarios and on synopses
/// whose blocks are mostly size 1.
///
/// A synopsis that ConflictWorldTable::Eligible accepts takes the table
/// instead, chosen once at construction: a draw turns the digit plan's
/// one word into a world index and looks its outcome up, with the same
/// words and values as the index path. It takes no word when a certain
/// image ends before the first conflict block, as the stop rule does.
///
/// The naive scan survives as a test oracle (tests/natural_sampler.h);
/// the test suite checks statistical agreement with it.
class IndexedNaturalSampler : public Sampler {
 public:
  /// The synopsis must be non-empty and outlive the sampler.
  explicit IndexedNaturalSampler(const Synopsis* synopsis);

  void DrawBatch(Rng& rng, size_t n, double* out) override;
  double GoodnessFactor() const override { return 1.0; }
  const char* name() const override { return "SampleNatural/indexed"; }

 private:
  /// One draw through the image index, without obs accounting.
  double DrawImpl(Rng& rng);
  /// DrawImpl through the conflict-world table.
  double TableDraw(Rng& rng);

  const Synopsis* synopsis_;
  // Exactly one of the two paths is built.
  std::optional<ConflictWorldTable> table_;
  std::optional<ImageIndex> index_;
  TidDigitPlan digits_;
  Synopsis::Choice scratch_;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_INDEXED_NATURAL_SAMPLER_H_
