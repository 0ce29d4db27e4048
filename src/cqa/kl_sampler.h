// SampleKL (Karp-Luby): symbolic-space sampler returning 1 iff the drawn
// pair is the first witness of its database.
#ifndef CQABENCH_CQA_KL_SAMPLER_H_
#define CQABENCH_CQA_KL_SAMPLER_H_

#include <optional>

#include "cqa/conflict_worlds.h"
#include "cqa/image_index.h"
#include "cqa/sampler.h"
#include "cqa/symbolic_space.h"

namespace cqa {

/// Sampler 2 (SampleKL), after Karp and Luby: draws (i, I) uniformly from
/// the symbolic space S• and returns 1 iff no j < i has I ∈ I_j, i.e. i is
/// the first witness of I. (|db(B)|/|S•|)-good (Lemma 4.5):
///   E[Draw] = R(H, B) · |db(B)| / |S•|.
///
/// The prefix-rejection test runs over the shared ImageIndex: instead of
/// re-testing containment of every image j < i against the drawn database
/// (Θ(Σ_{j<i} |H_j|) per draw), it rejects at once when a certain image
/// (wholly in size-1 blocks, so in every database) precedes i, and
/// otherwise walks only the images that share a drawn conflict fact,
/// stopping at the first completed j < i. Per-draw cost is that of
/// SymbolicSpace::SampleElement plus Θ(#conflict blocks +
/// Σ_{drawn conflict facts} |images containing that fact|).
///
/// A synopsis that ConflictWorldTable::Eligible accepts takes the table
/// instead, chosen once at construction: the alias word picks i, the next
/// word and i's pinned tids give the world, and i is its first witness
/// iff it is the lowest bit of the world's mask.
class KlSampler : public Sampler {
 public:
  /// The space (and its synopsis) must outlive the sampler.
  explicit KlSampler(const SymbolicSpace* space);

  double Draw(Rng& rng) override;
  void DrawBatch(Rng& rng, size_t n, double* out) override;
  double GoodnessFactor() const override {
    return 1.0 / space_->total_weight();
  }
  const char* name() const override { return "SampleKL"; }

 private:
  /// One draw without obs accounting (shared by Draw and DrawBatch).
  double DrawImpl(Rng& rng);
  /// DrawImpl through the conflict-world table.
  double TableDraw(Rng& rng);

  const SymbolicSpace* space_;
  // Exactly one of the two paths is built.
  std::optional<ConflictWorldTable> table_;
  std::optional<ImageIndex> index_;
  Synopsis::Choice scratch_;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_KL_SAMPLER_H_
