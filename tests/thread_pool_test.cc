#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "cqa/monte_carlo.h"
#include "obs/metrics.h"

namespace cqa {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.Run(hits.size(), [&](size_t t) { hits[t].fetch_add(1); });
  for (size_t t = 0; t < hits.size(); ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  size_t sum = 0;  // Plain variable: everything runs on this thread.
  pool.Run(10, [&](size_t t) { sum += t; });
  EXPECT_EQ(sum, 45u);
}

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Run(0, [](size_t) { FAIL() << "no task should run"; });
}

TEST(ThreadPoolTest, EnsureWorkersReportsSpawnsAndNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.EnsureWorkers(3), 2u);
  EXPECT_EQ(pool.num_workers(), 3u);
  // Re-requesting a smaller or equal width is pure reuse.
  EXPECT_EQ(pool.EnsureWorkers(2), 0u);
  EXPECT_EQ(pool.EnsureWorkers(3), 0u);
  EXPECT_EQ(pool.num_workers(), 3u);
}

TEST(ThreadPoolTest, SideEffectsVisibleAfterRun) {
  // Run() promises a happens-before edge: plain writes from tasks are
  // readable without atomics afterwards.
  ThreadPool pool(4);
  std::vector<size_t> out(64, 0);
  pool.Run(out.size(), [&](size_t t) { out[t] = t * t; });
  for (size_t t = 0; t < out.size(); ++t) EXPECT_EQ(out[t], t * t);
}

TEST(ThreadPoolTest, NestedRunDoesNotDeadlock) {
  // A task that itself calls Run() must complete even when every pool
  // worker is occupied by the outer job: the nested caller drains its
  // own tasks.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.Run(4, [&](size_t) {
    pool.Run(8, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, ReusedAcrossManyRuns) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run(10, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

/// A sampler with a known Bernoulli(p) distribution.
class BernoulliSampler : public Sampler {
 public:
  explicit BernoulliSampler(double p) : p_(p) {}
  void DrawBatch(Rng& rng, size_t n, double* out) override {
    FillBatch(n, out, [&] { return rng.Bernoulli(p_) ? 1.0 : 0.0; });
  }
  double GoodnessFactor() const override { return 1.0; }
  const char* name() const override { return "bernoulli"; }

 private:
  double p_;
};

// The launch/reuse counters compile out under -DCQABENCH_NO_OBS; the
// pool itself is still exercised by every other test in this file.
#ifndef CQABENCH_NO_OBS
TEST(ThreadPoolTest, ParallelMonteCarloSpawnsZeroThreadsInSteadyState) {
  // The acceptance criterion of the pooled scheme layer: after a warm-up
  // call, a two-thread MonteCarloEstimate must serve every further call
  // from the existing workers — zero thread launches, pool_reuses ticking.
  obs::Registry& registry = obs::Registry::Instance();
  SamplerFactory factory = [] {
    return std::make_unique<BernoulliSampler>(0.4);
  };
  Rng rng(17);
  auto run_once = [&] {
    MonteCarloResult r =
        MonteCarloEstimate(factory, 2, 0.2, 0.2, rng);
    EXPECT_FALSE(r.timed_out);
    EXPECT_NEAR(r.estimate, 0.4, 0.15);
  };
  run_once();  // Warm-up: may spawn the two-wide pool.
  const uint64_t launched = registry.CounterValue("parallel.workers_launched");
  const uint64_t reuses = registry.CounterValue("parallel.pool_reuses");
  for (int i = 0; i < 3; ++i) run_once();
  EXPECT_EQ(registry.CounterValue("parallel.workers_launched"), launched)
      << "steady-state call spawned threads";
  EXPECT_EQ(registry.CounterValue("parallel.pool_reuses"), reuses + 3);
}
#endif  // CQABENCH_NO_OBS

}  // namespace
}  // namespace cqa
