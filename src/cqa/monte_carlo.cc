#include "cqa/monte_carlo.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "cqa/invariants.h"
#include "cqa/opt_estimate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cqa {

namespace {

/// Main-loop draws come in blocks: one virtual call, one deadline check,
/// and one audit per block instead of per draw. A share is fixed up
/// front, so batching is stream-identical to drawing one by one.
constexpr size_t kBatch = 256;

/// One worker's share of the main loop. Stops before a block once the
/// deadline has expired or another worker has seen it expire.
void RunShare(Sampler& sampler, Rng& rng, size_t share,
              const Deadline& deadline, std::atomic<bool>* expired,
              obs::ConvergenceRecorder* convergence, double* sum_out,
              size_t* count_out) {
  double sum = 0.0;
  size_t count = 0;
  std::vector<double> buf(std::min(share, kBatch));
  while (count < share) {
    if (expired->load(std::memory_order_relaxed) || deadline.Expired()) {
      expired->store(true, std::memory_order_relaxed);
      break;
    }
    size_t m = std::min(share - count, kBatch);
    sampler.DrawBatch(rng, m, buf.data());
    CQA_AUDIT(audit::CheckBatchDraws, sampler, buf.data(), m);
    for (size_t k = 0; k < m; ++k) {
      sum += buf[k];
      if (convergence != nullptr) convergence->Observe(buf[k]);
    }
    count += m;
  }
  *sum_out = sum;
  *count_out = count;
}

}  // namespace

MonteCarloResult MonteCarloEstimate(
    const SamplerFactory& factory, size_t num_threads, double epsilon,
    double delta, Rng& rng, const Deadline& deadline,
    obs::ConvergenceRecorder* estimator_convergence,
    obs::ConvergenceRecorder* main_convergence) {
  CQA_CHECK(num_threads >= 1);
  MonteCarloResult result;
  std::unique_ptr<Sampler> sampler = factory();
  Stopwatch phase_watch;
  OptEstimateResult opt;
  {
    obs::TraceSpan span("monte_carlo.estimator");
    opt = OptEstimate(*sampler, epsilon, delta, rng, deadline,
                      estimator_convergence);
  }
  result.estimator_samples = opt.samples_used;
  result.estimator_seconds = phase_watch.ElapsedSeconds();
  if (opt.timed_out) {
    result.timed_out = true;
    return result;
  }

  const size_t n = opt.num_iterations;
  phase_watch.Restart();
  obs::TraceSpan main_span("monte_carlo.main_loop");
  CQA_OBS_COUNT("monte_carlo.runs");
  std::atomic<bool> expired{false};
  std::vector<double> sums(num_threads, 0.0);
  result.per_thread_samples.assign(num_threads, 0);
  if (num_threads == 1) {
    RunShare(*sampler, rng, n, deadline, &expired, main_convergence,
             &sums[0], &result.per_thread_samples[0]);
  } else {
    // Disjoint shares on the persistent pool, one fresh sampler and one
    // forked stream each. The seeds are forked before any task starts, so
    // they depend only on the parent stream, not on scheduling.
    ThreadPool& pool = ThreadPool::Shared();
    size_t spawned = pool.EnsureWorkers(num_threads - 1);
    CQA_OBS_COUNT_N("parallel.workers_launched", spawned);
    if (spawned == 0) CQA_OBS_COUNT("parallel.pool_reuses");
    std::vector<uint64_t> seeds(num_threads);
    for (uint64_t& seed : seeds) seed = rng.ForkSeed();
    pool.Run(num_threads, [&](size_t t) {
      obs::TraceSpan worker_span("monte_carlo.worker", main_span.id());
      std::unique_ptr<Sampler> worker = factory();
      Rng worker_rng(seeds[t]);
      size_t share = n / num_threads + (t < n % num_threads ? 1 : 0);
      // The pool's completion handshake orders task 0's recorder writes
      // before the caller reads them.
      RunShare(*worker, worker_rng, share, deadline, &expired,
               t == 0 ? main_convergence : nullptr, &sums[t],
               &result.per_thread_samples[t]);
      CQA_OBS_COUNT_N("parallel.worker_draws", result.per_thread_samples[t]);
    });
  }

  double sum = 0.0;
  size_t count = 0;
  for (size_t t = 0; t < num_threads; ++t) {
    sum += sums[t];
    count += result.per_thread_samples[t];
  }
  result.main_samples = count;
  result.main_seconds = phase_watch.ElapsedSeconds();
  CQA_OBS_COUNT_N("monte_carlo.main_draws", count);
  if (count < n) {
    result.timed_out = true;
    CQA_OBS_COUNT("monte_carlo.timeouts");
  } else {
    result.estimate = sum / static_cast<double>(n);
  }
  CQA_AUDIT(audit::CheckMonteCarloResult, result);
  return result;
}

}  // namespace cqa
