// Self-adjusting coverage algorithm (the paper's Algorithm 5 / Cover
// scheme): estimates the normalized union size of the image sets over
// the symbolic space with a deterministic step budget.
#ifndef CQABENCH_CQA_COVERAGE_H_
#define CQABENCH_CQA_COVERAGE_H_

#include <cstddef>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/symbolic_space.h"
#include "obs/convergence.h"

namespace cqa {

struct CoverageResult {
  /// Estimate of |∪_i I_i| / |S•|, i.e. the union size normalized by the
  /// symbolic space. Multiply by |S•|/|db(B)| (= SymbolicSpace::
  /// total_weight()) to obtain R(H, B).
  double normalized_estimate = 0.0;
  /// Inner-loop draws actually made: N when the budget ran out, fewer
  /// when the deadline stopped the run first.
  size_t steps = 0;
  /// Completed trials (outer samples whose witness search finished).
  size_t trials = 0;
  bool timed_out = false;
};

/// The self-adjusting coverage algorithm of Karp, Luby and Madras [15]
/// (Algorithm 6 in the paper's appendix), solving UnionOfSets on the sets
/// I_1, ..., I_n described by an admissible pair (H, B).
///
/// Unlike the Monte Carlo schemes, the step budget
///   N = ⌈ 8(1+ε)|H| ln(3/δ) / ((1-ε²/8) ε²) ⌉
/// is fixed deterministically, which makes the running time predictable —
/// but linear in |H| with a large constant, the behaviour the paper's
/// experiments single out. Each outer trial costs one
/// SymbolicSpace::SampleElement; each inner step one uniform index j plus
/// SymbolicSpace::ImageContainedIn, which reads only H_j's facts in
/// blocks of size >= 2 from one flat array. A synopsis that
/// ConflictWorldTable::Eligible accepts draws each trial's world through
/// a table instead (the same engine words), and an inner step tests bit
/// j of the world's mask.
///
/// When `recorder` is non-null it receives, per completed trial, the
/// witness-search cost normalized by |H| — the per-trial draw whose mean
/// the coverage estimate is (null = off; compiled out under
/// CQABENCH_NO_OBS).
CoverageResult SelfAdjustingCoverage(
    const SymbolicSpace& space, double epsilon, double delta, Rng& rng,
    const Deadline& deadline = Deadline(),
    obs::ConvergenceRecorder* recorder = nullptr);

}  // namespace cqa

#endif  // CQABENCH_CQA_COVERAGE_H_
