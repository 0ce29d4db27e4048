// SampleKLM (Karp-Luby-Madras): symbolic-space sampler returning 1/k for
// k witnessing images -- same expectation as SampleKL, lower variance.
#ifndef CQABENCH_CQA_KLM_SAMPLER_H_
#define CQABENCH_CQA_KLM_SAMPLER_H_

#include <optional>

#include "cqa/conflict_worlds.h"
#include "cqa/image_index.h"
#include "cqa/sampler.h"
#include "cqa/symbolic_space.h"

namespace cqa {

/// Sampler 3 (SampleKLM), the Karp–Luby–Madras variation (after the
/// coverage estimator in Vazirani's presentation [26]): draws (i, I)
/// uniformly from S• and returns 1/k where k = |{j : I ∈ I_j}| is the
/// number of images witnessing I. (|db(B)|/|S•|)-good (Lemma 4.7), same
/// expectation as SampleKL but smaller variance at the price of counting
/// every witness instead of stopping at the first.
///
/// The witness count runs over the shared ImageIndex: the certain images
/// (wholly in size-1 blocks) are counted once at construction, and only
/// images sharing a drawn conflict fact are visited, instead of
/// re-testing containment of all of H against the drawn database. Per
/// draw that is SymbolicSpace::SampleElement plus Θ(#conflict blocks +
/// Σ_{drawn conflict facts} |images containing that fact|).
///
/// A synopsis that ConflictWorldTable::Eligible accepts takes the table
/// instead, chosen once at construction: k is the popcount of the drawn
/// world's mask, less its kFilled bit.
class KlmSampler : public Sampler {
 public:
  /// The space (and its synopsis) must outlive the sampler.
  explicit KlmSampler(const SymbolicSpace* space);

  double Draw(Rng& rng) override;
  void DrawBatch(Rng& rng, size_t n, double* out) override;
  double GoodnessFactor() const override {
    return 1.0 / space_->total_weight();
  }
  const char* name() const override { return "SampleKLM"; }

 private:
  /// One draw; adds this draw's witness count to *witnesses.
  double DrawImpl(Rng& rng, size_t* witnesses);
  /// DrawImpl through the conflict-world table.
  double TableDraw(Rng& rng, size_t* witnesses);

  const SymbolicSpace* space_;
  // Exactly one of the two paths is built.
  std::optional<ConflictWorldTable> table_;
  std::optional<ImageIndex> index_;
  Synopsis::Choice scratch_;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_KLM_SAMPLER_H_
