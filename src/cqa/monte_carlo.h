// MonteCarlo[Sample] (the paper's Algorithm 2): OptEstimate picks the
// sample count N, the main loop averages N draws -- on the caller's
// sampler and stream at one thread, split across pooled workers with
// forked streams at more (the appendix's "parallel sampling phase").
#ifndef CQABENCH_CQA_MONTE_CARLO_H_
#define CQABENCH_CQA_MONTE_CARLO_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/sampler.h"
#include "obs/convergence.h"

namespace cqa {

struct MonteCarloResult {
  /// Mean of the main-phase samples: the (ε, δ)-approximation of
  /// E[Sample((H, B))]. Divide by Sampler::GoodnessFactor() to recover
  /// R(H, B).
  double estimate = 0.0;
  /// Samples consumed by OptEstimate.
  size_t estimator_samples = 0;
  /// Samples of the main loop (the N of Algorithm 2).
  size_t main_samples = 0;
  bool timed_out = false;
  /// Wall-clock split of the two phases: the OptEstimate call vs the
  /// main sampling loop. Always filled (cheap: two stopwatch reads per
  /// estimate, never per draw).
  double estimator_seconds = 0.0;
  double main_seconds = 0.0;
  /// Main-loop samples per worker, one entry per thread (size 1 at one
  /// thread) — the spread makes worker imbalance visible in run reports.
  std::vector<size_t> per_thread_samples;
};

/// Factory producing independent sampler instances over the same
/// admissible pair. Samplers keep per-draw scratch state, so each worker
/// thread needs its own instance.
using SamplerFactory = std::function<std::unique_ptr<Sampler>()>;

/// Algorithm 2, MonteCarlo[Sample]: asks OptEstimate for the optimal
/// iteration count N, then averages N fresh samples. Under Lemma 4.2's
/// conditions this is an efficient randomized approximation scheme for
/// EV[Sample].
///
/// OptEstimate runs on one sampler from `factory` over `rng`. At one
/// thread the main loop continues on that sampler and stream. At more,
/// the N draws are split across `num_threads` fresh samplers on the
/// process-wide ThreadPool, each on a stream whose seed is forked from
/// `rng` up front (Rng::ForkSeed), and the partial sums are combined once
/// at the end — no synchronization on the hot path. The N draws are
/// i.i.d. from the same distribution whichever worker drew them, so the
/// (ε, δ) guarantee holds at every width. Either way the loop draws in
/// blocks and checks the deadline before each; a worker that sees it
/// expire stops the others.
///
/// The pool spawns threads the first time a width is requested and
/// reuses them in every later call (and in ApxCqaOnSynopses), so steady
/// state launches zero threads: `parallel.workers_launched` moves only
/// when the pool grows, `parallel.pool_reuses` counts calls served by
/// existing workers.
///
/// The optional recorders collect convergence telemetry: every estimator
/// draw goes to `estimator_convergence`, and every main-loop draw at one
/// thread — worker 0's draws at more, since a recorder is not
/// thread-safe and one worker's i.i.d. stream is a faithful sample — to
/// `main_convergence` (null = off; compiled out under CQABENCH_NO_OBS).
MonteCarloResult MonteCarloEstimate(
    const SamplerFactory& factory, size_t num_threads, double epsilon,
    double delta, Rng& rng, const Deadline& deadline = Deadline(),
    obs::ConvergenceRecorder* estimator_convergence = nullptr,
    obs::ConvergenceRecorder* main_convergence = nullptr);

}  // namespace cqa

#endif  // CQABENCH_CQA_MONTE_CARLO_H_
