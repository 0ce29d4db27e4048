// Audit predicates for the estimator stack (compiled in by the sanitizer
// presets): structural synopsis invariants, sampler goodness bounds, and
// estimator post-conditions.
#ifndef CQABENCH_CQA_INVARIANTS_H_
#define CQABENCH_CQA_INVARIANTS_H_

#include <cstddef>
#include <string>

#include "cqa/coverage.h"
#include "cqa/monte_carlo.h"
#include "cqa/opt_estimate.h"
#include "cqa/sampler.h"
#include "cqa/symbolic_space.h"
#include "cqa/synopsis.h"

namespace cqa {
class ConflictWorldTable;
}  // namespace cqa

namespace cqa::audit {

/// Audit predicates for the estimator stack, run through CQA_AUDIT (see
/// common/macros.h). Each returns true when the invariant holds; on a
/// violation it writes a diagnostic to *why (when non-null) and returns
/// false, so tests can probe deliberately corrupted states without dying.
///
/// These encode the load-bearing guarantees of §4–§5: a violated one does
/// not crash a Release benchmark — it silently skews every reported
/// estimate — which is exactly why the sanitizer presets compile them in.

/// Structural synopsis invariants: block sizes >= 1; every image
/// non-empty, sorted by block, at most one fact per block (consistency),
/// with in-range block/tid references; images pairwise distinct; every
/// image weight in (0, 1].
bool CheckSynopsis(const Synopsis& synopsis, std::string* why);

/// The space's cached weights are exactly the synopsis image weights and
/// total_weight() is their sum (the |S•|/|db(B)| conversion factor every
/// symbolic scheme multiplies by). Also runs CheckAliasTable.
bool CheckSymbolicSpace(const SymbolicSpace& space, std::string* why);

/// The Walker/Vose alias table encodes exactly the normalized weights:
/// reconstructing image i's selection mass — its own column's acceptance
/// probability plus the residual 1 - alias_prob()[k] of every column k
/// aliased to i — and dividing by the column count recovers w_i / W up to
/// FP tolerance. Catches any construction bug that would silently bias
/// every KL/KLM draw.
bool CheckAliasTable(const SymbolicSpace& space, std::string* why);

/// Postcondition of a Sampler::DrawBatch block: every value lies in
/// [0, 1], the range the (ε, δ) analysis of the estimator stack assumes.
bool CheckBatchDraws(const Sampler& sampler, const double* values, size_t n,
                     std::string* why);

/// A sampled element (i, I) of S• is well-formed: i indexes an image, I
/// picks an in-range tuple for every block, and H_i ⊆ I — the
/// block-membership property KL/KLM acceptance relies on.
bool CheckSampledElement(const SymbolicSpace& space, size_t image_index,
                         const Synopsis::Choice& choice, std::string* why);

/// All facts of image `image_index` lie in blocks < prefix_blocks and
/// match the partially drawn choice — the early-accept invariant of the
/// indexed natural sampler, which stops drawing once an image completes.
bool CheckImageInPrefix(const Synopsis& synopsis, size_t image_index,
                        const Synopsis::Choice& choice, size_t prefix_blocks,
                        std::string* why);

/// A natural-space draw returned 1.0 iff some image is contained in the
/// fully drawn choice (cross-validates indexed fast paths against the
/// naive scan).
bool CheckNaturalDraw(const Synopsis& synopsis, const Synopsis::Choice& choice,
                      double value, std::string* why);

/// A freshly filled conflict-world mask is the naive scan's answer:
/// decoding world `world` into a Choice, bit i is set exactly when
/// Synopsis::ImageContainedIn(i, choice) holds, kFilled is set, and no
/// bit between the last image and kFilled is.
bool CheckWorldMask(const ConflictWorldTable& table, uint32_t world,
                    uint64_t mask, std::string* why);

/// A symbolic draw through a conflict-world table lies in S•: the mask of
/// the world drawn for image `image_index` holds that image.
bool CheckWorldWitness(uint64_t mask, size_t image_index, std::string* why);

/// OptEstimate's (ε, δ) precondition: both strictly inside (0, 1).
bool CheckOptEstimateParams(double epsilon, double delta, std::string* why);

/// Postconditions of a completed (non-timed-out) OptEstimate run:
/// μ̂ ∈ (0, 1] (samples live in [0, 1]), ρ̂ >= ε·μ̂ (the variance clamp),
/// and at least one main-loop iteration was requested.
bool CheckOptEstimateResult(const OptEstimateResult& result, double epsilon,
                            std::string* why);

/// A Monte Carlo result is internally consistent: the per-thread sample
/// counts sum to main_samples, phase times are non-negative, and a
/// completed estimate lies in [0, 1] (samplers emit values in [0, 1]).
bool CheckMonteCarloResult(const MonteCarloResult& result, std::string* why);

/// The coverage loop respected its deterministic budget: steps <= N,
/// every trial cost at least one step, and the normalized estimate of a
/// completed run is non-negative.
bool CheckCoverageResult(const CoverageResult& result, size_t budget,
                         std::string* why);

}  // namespace cqa::audit

#endif  // CQABENCH_CQA_INVARIANTS_H_
