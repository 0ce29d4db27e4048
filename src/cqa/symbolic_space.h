// The symbolic sampling space S* of section 4.2, with alias-table image
// selection. Immutable after construction; samplers draw from it through
// their own per-thread scratch.
#ifndef CQABENCH_CQA_SYMBOLIC_SPACE_H_
#define CQABENCH_CQA_SYMBOLIC_SPACE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "cqa/image_index.h"
#include "cqa/synopsis.h"

namespace cqa {

/// The symbolic sampling space S• of §4.2:
///   S• = { (i, I) | i ∈ [|H|], I ∈ db(B), H_i ⊆ I }.
///
/// All cardinalities are handled as ratios against |db(B)| so nothing
/// overflows: w_i = |I_i|/|db(B)| = Π_{blocks of H_i} 1/|block| and
/// |S•|/|db(B)| = Σ_i w_i. Sampling (i, I) uniformly from S• = draw
/// i with probability w_i / Σ w_j, fix the facts of H_i, and choose the
/// remaining blocks uniformly.
///
/// Image selection uses a Walker/Vose alias table built once at
/// construction: O(1) per draw (one uniform index + one uniform real)
/// instead of the O(log |H|) binary search over prefix sums a cumulative
/// table costs — on the million-draw main loops of the KL/KLM schemes the
/// search was a measurable fraction of every draw.
class SymbolicSpace {
 public:
  /// The synopsis must be non-empty and outlive the space.
  explicit SymbolicSpace(const Synopsis* synopsis);

  const Synopsis& synopsis() const { return *synopsis_; }

  /// |S•| / |db(B)| = Σ_i w_i. This is the `r`-goodness inverse: the
  /// KL/KLM samplers are (|db(B)|/|S•|)-good.
  double total_weight() const { return total_weight_; }

  const std::vector<double>& weights() const { return weights_; }

  /// The Vose alias table: column k selects image k with probability
  /// alias_prob()[k], else image alias()[k]. Exposed for the audit layer
  /// and the distribution tests, which reconstruct each image's selection
  /// mass from the table and compare it against weights().
  const std::vector<double>& alias_prob() const { return alias_prob_; }
  const std::vector<uint32_t>& alias() const { return alias_; }

  /// alias_prob() rescaled to 64-bit integer coin thresholds — what the
  /// draw actually compares against. Exposed for the audit layer, which
  /// re-derives each cutoff from alias_prob().
  const std::vector<uint64_t>& alias_cut() const { return alias_cut_; }

  /// Draws the image index i with probability w_i / Σ w_j — the alias
  /// draw alone, without materializing a database. One engine word does
  /// both halves of the alias draw: u·n splits into the column index
  /// ⌊u·n⌋ and the coin frac(u·n), which is the classic one-uniform alias
  /// formulation (the coin's granularity is 2^64/n, far below anything
  /// the chi-square tests can see).
  size_t SampleImageIndex(Rng& rng) const {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(rng.engine()()) * alias_cut_.size();
    const size_t k = static_cast<size_t>(m >> 64);
    return static_cast<uint64_t>(m) < alias_cut_[k] ? k : alias_[k];
  }

  /// Draws (i, I) uniformly from S• and returns i. Costs the alias word
  /// plus the digit-plan words and writes of the blocks of size >= 2;
  /// size-1 blocks cost nothing. Resizes *choice to the number of blocks
  /// and writes I's entries for the blocks of size >= 2 only: resize
  /// zero-fills new entries, and a size-1 block's only tid is 0, so its
  /// entry must already be 0. Pass an empty choice or one that only
  /// SampleElement calls on this space have written.
  size_t SampleElement(Rng& rng, Synopsis::Choice* choice) const;

  /// True iff image i is contained in `choice`, any database of db(B)
  /// (every entry in range). Reads only H_i's facts in blocks of size
  /// >= 2 — a size-1 block's entry is always its fact — from one flat
  /// array. Same answer as Synopsis::ImageContainedIn.
  bool ImageContainedIn(size_t i, const Synopsis::Choice& choice) const {
    for (uint32_t p = pin_offsets_[i]; p < pin_offsets_[i + 1]; ++p) {
      if (choice[pins_[p].block] != pins_[p].tid) return false;
    }
    return true;
  }

 private:
  const Synopsis* synopsis_;
  std::vector<double> weights_;
  // Walker/Vose alias table over weights_ (one column per image).
  // alias_cut_ is alias_prob_ rescaled to a 64-bit integer threshold so
  // the draw compares raw fraction bits instead of converting to double.
  std::vector<double> alias_prob_;
  std::vector<uint64_t> alias_cut_;
  std::vector<uint32_t> alias_;
  // Refill schedule packing the tid draws of one sample's blocks of size
  // >= 2 into ~⌈Σ log2 |block|/32⌉ engine words.
  TidDigitPlan digits_;
  // Flat CSR of each image's facts in blocks of size >= 2: image i pins
  // pins_[pin_offsets_[i] .. pin_offsets_[i + 1]).
  std::vector<uint32_t> pin_offsets_;
  std::vector<Synopsis::ImageFact> pins_;
  double total_weight_ = 0.0;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_SYMBOLIC_SPACE_H_
