// Lock-ordering stress tests for the concurrent core. Each test drives
// one of the cross-class acquisition paths documented in the
// docs/architecture.md lock-hierarchy table — loop mailbox → admission
// queue → synopsis cache → engine db/preprocess locks, the stats op
// racing a graceful drain, and nested ThreadPool::Run — under enough
// concurrency that an ordering violation would deadlock (caught by the
// ctest timeout) or trip ThreadSanitizer's lock-inversion detector when
// built with the `tsan` preset.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "cqa/preprocess.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "query/parser.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/synopsis_cache.h"
#include "storage/tbl_io.h"
#include "test_util.h"

namespace cqa::serve {
namespace {

constexpr const char* kQuery =
    "Q(NN) :- customer(CK, CN, CA, NK, CP, CB, CS, CC), "
    "nation(NK, NN, RK, NC).";

/// Shared on-disk dataset for the full-server paths (generated once,
/// read-only afterwards).
class DeadlockOrderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("cqa_deadlock_order_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    Dataset d = GenerateTpch(TpchOptions{0.0003, 23});
    ConjunctiveQuery q = MustParseCq(*d.schema, kQuery);
    NoiseOptions noise;
    noise.p = 0.5;
    Rng rng(7);
    AddQueryAwareNoise(d.db.get(), q, noise, rng);
    std::string error;
    ASSERT_TRUE(WriteTblDirectory(*d.db, dir_->string(), &error)) << error;
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static Request MakeQueryRequest(uint64_t seed) {
    Request request;
    request.op = "query";
    request.schema = "tpch";
    request.data = dir_->string();
    request.query = kQuery;
    request.scheme = "KLM";
    request.seed = seed;
    return request;
  }

  static std::filesystem::path* dir_;
};

std::filesystem::path* DeadlockOrderTest::dir_ = nullptr;

// The deepest chain in the tree: every request crosses the admission
// queue's mu_, the synopsis cache's mu_ (single-flight on one shared
// key), the engine's db_mu_, on the flight's miss the database's
// block_index_mu_ and its DatabaseIndexCache's mu_ (one after the other,
// evaluation runs with neither held), and a loop's mailbox_mu_ for the
// response. A tight inflight bound plus identical keys maximizes
// contention on every lock in the chain at once; any held-across-acquire
// edge between them would wedge here.
TEST_F(DeadlockOrderTest, ServerAdmissionCacheEngineChainUnderContention) {
  ServerOptions options;
  options.workers = 8;
  options.max_inflight = 2;
  options.max_queue = 64;
  CqadServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr size_t kClients = 24;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  std::atomic<size_t> ok{0};
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      CqaClient client;
      std::string client_error;
      if (!client.Connect("127.0.0.1", server.port(), &client_error)) {
        failures[i] = "connect: " + client_error;
        return;
      }
      // Two seeds: every request after the first flight hits the same
      // synopsis-cache entry while admission throttles to 2 at a time.
      Response response;
      if (!client.Call(MakeQueryRequest(1 + i % 2), &response,
                       &client_error)) {
        failures[i] = "call: " + client_error;
        return;
      }
      if (response.ok()) ++ok;
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].empty()) << failures[i];
  }
  // With max_queue = 64 > kClients nothing sheds: every request must
  // complete (a lost wakeup or ordering deadlock would hang the join
  // above instead).
  EXPECT_EQ(ok.load(), kClients);

  server.RequestDrain();
  server.Wait();
}

// The stats op reads the connection and admission gauges and the cache
// counters on a loop thread while the drain takes drain_mu_, drains the
// admission queue (its mu_), and posts sweeps and force-closes through
// the loop mailboxes — the two paths touch the same locks from opposite
// directions in sequence, and must never hold one while taking the
// other.
TEST_F(DeadlockOrderTest, StatsOpsRacingGracefulDrain) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 4; ++t) {
    pollers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        CqaClient client;
        std::string client_error;
        if (!client.Connect("127.0.0.1", port, &client_error)) return;
        Request stats;
        stats.op = "stats";
        Response response;
        // Failures are expected once the drain lands (connection reset
        // or kDraining); the only wrong outcome is a hang.
        if (!client.Call(stats, &response, &client_error)) return;
        if (!response.ok()) return;
      }
    });
  }

  // Let the pollers get in flight, then drain out from under them.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.RequestDrain();
  server.Wait();
  stop.store(true);
  for (std::thread& t : pollers) t.join();
}

// Nested fork/join on the shared pool: tasks of an outer Run() issue
// inner Run() calls from many caller threads at once. The pool's mu_ is
// released around every task body, so the nested caller drains its own
// job instead of deadlocking on a worker that is itself waiting.
TEST_F(DeadlockOrderTest, NestedPoolRunFromConcurrentCallers) {
  ThreadPool pool(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::atomic<size_t> inner_total{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      pool.Run(kOuter, [&](size_t) {
        pool.Run(kInner, [&](size_t) {
          inner_total.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(inner_total.load(), kCallers * kOuter * kInner);
}

// Single-flight builds racing Clear(): Clear drops completed entries
// while a build for the same key is in flight (the build runs with the
// cache lock released and re-inserts on completion), and fresh
// GetOrBuild calls pile onto both outcomes.
TEST_F(DeadlockOrderTest, CacheSingleFlightRacingClear) {
  SynopsisCache cache(8);
  auto slow_build = [](std::string*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    testing::EmployeeFixture fixture;
    ConjunctiveQuery q =
        MustParseCq(*fixture.schema, "Q(N) :- employee(I, N, D).");
    return std::make_shared<const PreprocessResult>(
        BuildSynopses(*fixture.db, q));
  };

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 20;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        if (t == 0 && round % 3 == 0) cache.Clear();
        bool hit = false;
        std::string error;
        // Threads alternate between one hot shared key and a per-thread
        // key, so the same rounds mix single-flight piggybacking with
        // independent parallel builds.
        const std::string key =
            (round % 2 == 0) ? "hot" : "cold-" + std::to_string(t);
        auto value = cache.GetOrBuild(key, slow_build, &hit, &error);
        ASSERT_NE(value, nullptr) << error;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.entries(), cache.capacity());
}

}  // namespace
}  // namespace cqa::serve
