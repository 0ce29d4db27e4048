// Concurrency stress tests aimed at ThreadSanitizer (the `tsan` preset).
// Under plain builds they are fast smoke tests; under -fsanitize=thread
// they prove the claims the obs layer, the parallel estimator and the
// shared block index make: relaxed-atomic metric updates never race with
// snapshots, scheme runs on distinct objects share no mutable state,
// concurrent deadline expiry is benign, concurrent first calls to
// Database::block_index build one index, and concurrent evaluations share
// one DatabaseIndexCache.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/apx_cqa.h"
#include "cqa/klm_sampler.h"
#include "cqa/monte_carlo.h"
#include "cqa/schemes.h"
#include "cqa/symbolic_space.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "storage/block_index.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::MakeRandomSynopsis;

/// All four schemes running concurrently on per-thread synopses. The only
/// shared state is the process-wide obs registry, which every sampler
/// draw site increments.
TEST(ParallelRaceTest, ConcurrentSchemeRunsOnDistinctSynopses) {
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &failures] {
      Rng gen(100 + t);
      for (int round = 0; round < kRounds; ++round) {
        Synopsis s = MakeRandomSynopsis(gen, 4, 3, 4, 2);
        ApxParams params;
        params.epsilon = 0.3;  // Coarse: keep the stress test fast.
        params.delta = 0.3;
        Rng rng(1000 + 10 * t + round);
        for (SchemeKind kind : AllSchemeKinds()) {
          auto scheme = ApxRelativeFreqScheme::Create(kind);
          ApxResult r = scheme->Run(s, params, rng);
          if (r.timed_out || !(r.estimate >= 0.0)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Writers hammer counters and histograms (both the registration slow
/// path, via round-robin names, and the relaxed increment fast path)
/// while a reader concurrently snapshots, serializes, resets, and toggles
/// the enabled flag. TSan verifies the documented claim that snapshots
/// are approximate but never racy.
TEST(ParallelRaceTest, RegistryUpdatesRaceSnapshotsSafely) {
  obs::Registry& registry = obs::Registry::Instance();
  constexpr size_t kWriters = 3;
  constexpr int kIterations = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &registry] {
      const std::string counter_name =
          "race_test.counter_" + std::to_string(t % 2);
      const std::string histogram_name =
          "race_test.histogram_" + std::to_string(t % 2);
      for (int i = 0; i < kIterations; ++i) {
        registry.GetCounter(counter_name)->Increment();
        registry.GetHistogram(histogram_name)
            ->Observe(static_cast<uint64_t>(i));
        CQA_OBS_COUNT("race_test.macro_hits");
        CQA_OBS_OBSERVE("race_test.macro_values", i);
      }
    });
  }
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.Counters();
      (void)registry.Histograms();
      (void)registry.ToJson();
      (void)registry.CounterValue("race_test.counter_0");
      registry.set_enabled(false);
      registry.set_enabled(true);
      registry.Reset();
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  registry.set_enabled(true);
  // Values are unpredictable after concurrent resets; reaching this point
  // without a sanitizer report is the assertion. Snapshots must still be
  // well-formed:
  for (const obs::HistogramSnapshot& h : registry.Histograms()) {
    EXPECT_EQ(h.buckets.size(), obs::Histogram::kNumBuckets);
  }
}

/// The parallel Monte Carlo main loop with an already-expired and a
/// nearly-expired deadline: workers must observe expiry independently and
/// join cleanly, with no torn result state.
TEST(ParallelRaceTest, ParallelEstimateUnderDeadlinePressure) {
  Rng gen(7);
  Synopsis s = MakeRandomSynopsis(gen, 5, 4, 5, 3);
  SymbolicSpace space(&s);
  const SamplerFactory factory = [&] {
    return std::make_unique<KlmSampler>(&space);
  };

  Rng rng_expired(21);
  MonteCarloResult expired = MonteCarloEstimate(
      factory, 4, 0.1, 0.25, rng_expired, Deadline(0.0));
  EXPECT_TRUE(expired.timed_out);

  // A deadline that expires mid-run on some executions and not on others;
  // either outcome must be internally consistent.
  Rng rng_tight(22);
  MonteCarloResult tight = MonteCarloEstimate(
      factory, 4, 0.05, 0.05, rng_tight, Deadline(0.005));
  if (!tight.timed_out) {
    EXPECT_GE(tight.estimate, 0.0);
    EXPECT_LE(tight.estimate, 1.0);
    EXPECT_GE(tight.main_samples, 1u);
  }

  Rng rng_free(23);
  MonteCarloResult free_run =
      MonteCarloEstimate(factory, 4, 0.2, 0.25, rng_free);
  EXPECT_FALSE(free_run.timed_out);
  size_t total = 0;
  for (size_t n : free_run.per_thread_samples) total += n;
  EXPECT_EQ(total, free_run.main_samples);
}

/// The serving-layer sharing pattern: ONE const PreprocessResult (as the
/// synopsis cache hands out) under 4 threads × 4 schemes concurrently.
/// Schemes build all per-run scratch (SymbolicSpace, samplers,
/// ImageIndex) privately, so a cached synopsis set needs no lock — this
/// is the TSan proof of the thread-ownership contract documented in
/// cqa/synopsis.h and serve/synopsis_cache.h.
TEST(ParallelRaceTest, ConcurrentSchemesShareOneCachedPreprocessResult) {
  testing::EmployeeFixture fixture;
  ConjunctiveQuery q =
      MustParseCq(*fixture.schema, "Q(N) :- employee(I, N, D).");
  const auto shared = std::make_shared<const PreprocessResult>(
      BuildSynopses(*fixture.db, q));

  constexpr size_t kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, shared, &failures] {
      ApxParams params;
      Rng rng(500 + t);
      for (SchemeKind kind : AllSchemeKinds()) {
        CqaRunResult run = ApxCqaOnSynopses(*shared, kind, params, rng);
        if (run.timed_out || run.answers.size() != shared->NumAnswers()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // Determinism across the shared synopses: two serial runs with one
  // seed agree bit-for-bit (what lets the e2e test diff server answers
  // against local runs).
  ApxParams params;
  Rng rng_a(9);
  Rng rng_b(9);
  CqaRunResult a = ApxCqaOnSynopses(*shared, SchemeKind::kKlm, params, rng_a);
  CqaRunResult b = ApxCqaOnSynopses(*shared, SchemeKind::kKlm, params, rng_b);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].frequency, b.answers[i].frequency);
  }
}

/// Everything a PreprocessResult encodes, as text, for equality checks.
std::string DescribeSynopses(const PreprocessResult& pre) {
  std::string out;
  for (const AnswerSynopsis& as : pre.answers()) {
    out += TupleToString(as.answer) + ":";
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      out += " b" + std::to_string(b.relation_id) + "." +
             std::to_string(b.block_id) + "/" + std::to_string(b.size);
    }
    for (size_t i = 0; i < as.synopsis.NumImages(); ++i) {
      out += " |";
      for (const Synopsis::ImageFact& f : as.synopsis.image(i)) {
        out += " " + std::to_string(f.block) + "." + std::to_string(f.tid);
      }
    }
    out += "\n";
  }
  return out;
}

/// The database's lazily built block index under contention: 8 threads
/// preprocess one const database that has no index yet. One of them
/// builds it while the rest wait on the database's index lock, and every
/// result shares that one index.
TEST(ParallelRaceTest, ConcurrentSynopsisBuildsShareOneBlockIndex) {
  testing::EmployeeFixture fixture;
  for (int64_t id = 3; id < 3000; ++id) {
    fixture.db->Insert("employee", {Value(id),
                                    Value("E" + std::to_string(id % 17)),
                                    Value("HR")});
    if (id % 3 == 0) {
      fixture.db->Insert("employee", {Value(id), Value("F"), Value("IT")});
    }
  }
  const Database& db = *fixture.db;
  const ConjunctiveQuery q =
      MustParseCq(*fixture.schema, "Q(N) :- employee(I, N, D).");
  const uint64_t builds_before =
      obs::Registry::Instance().CounterValue("storage.block_index_builds");

  constexpr size_t kThreads = 8;
  std::vector<std::unique_ptr<const PreprocessResult>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &db, &q, &results] {
      results[t] =
          std::make_unique<const PreprocessResult>(BuildSynopses(db, q));
    });
  }
  for (std::thread& w : workers) w.join();

  const std::string expected = DescribeSynopses(*results[0]);
  EXPECT_GT(results[0]->NumAnswers(), 1u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(&results[t]->block_index(), db.block_index().get());
    EXPECT_EQ(DescribeSynopses(*results[t]), expected) << "thread " << t;
  }
#ifndef CQABENCH_NO_OBS
  EXPECT_EQ(obs::Registry::Instance().CounterValue(
                "storage.block_index_builds") - builds_before,
            1u);
#else
  (void)builds_before;
#endif
}

/// The evaluator's index cache under contention: 8 threads preprocess a
/// mix of TPC-H queries (joins, a self-join, stats-pruned constant scans)
/// against one database through ONE DatabaseIndexCache, each in its own
/// order, as concurrent cqad misses on one database do. Get finds or
/// builds an index under the cache's leaf lock and evaluation runs
/// unlocked; every result must equal a serial run's.
TEST(ParallelRaceTest, ConcurrentBuildsShareOneIndexCache) {
  Dataset d = GenerateTpch(TpchOptions{0.001, 7});
  const Database& db = *d.db;
  std::vector<ConjunctiveQuery> queries;
  for (const NamedQuery& nq : TpchValidationQueries(*d.schema)) {
    queries.push_back(nq.query);
  }
  std::vector<std::string> expected;
  for (const ConjunctiveQuery& q : queries) {
    expected.push_back(DescribeSynopses(BuildSynopses(db, q)));
  }
  EXPECT_GT(expected.size(), 5u);

  constexpr size_t kThreads = 8;
  DatabaseIndexCache cache(&db);
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &db, &queries, &cache, &got] {
      got[t].resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t k = (i + t) % queries.size();  // Staggered misses.
        got[t][k] = DescribeSynopses(BuildSynopses(db, queries[k], &cache));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < queries.size(); ++k) {
      EXPECT_EQ(got[t][k], expected[k]) << "thread " << t << " query " << k;
    }
  }
}

/// Deadline objects shared across threads: Expired()/RemainingSeconds()
/// are const reads of immutable state plus clock queries, and must be
/// safely callable from every worker at once.
TEST(ParallelRaceTest, SharedDeadlineReadsAreRaceFree) {
  Deadline tight(0.002);
  Deadline infinite;
  std::atomic<int> expired_count{0};
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (tight.Expired()) {
          expired_count.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        (void)tight.RemainingSeconds();
        (void)infinite.Expired();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(infinite.Expired());
}

}  // namespace
}  // namespace cqa
