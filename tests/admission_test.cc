// Admission-queue tests: FIFO execution, shedding once running plus
// queued jobs reach max_inflight + max_queue, deadline expiry at
// dequeue, drain, the retry-after estimate, and a submit/drain race in
// which every job must be settled exactly once — the load-shedding
// behaviour cqad's robustness rests on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/admission.h"

namespace cqa::serve {
namespace {

/// Collects rejection codes from whichever thread delivers them.
class Rejections {
 public:
  void Add(ErrorCode code) {
    MutexLock lock(mu_);
    codes_.push_back(code);
  }
  std::vector<ErrorCode> codes() const {
    MutexLock lock(mu_);
    return codes_;
  }

 private:
  mutable Mutex mu_;
  std::vector<ErrorCode> codes_ CQA_GUARDED_BY(mu_);
};

QueryJob CountingJob(std::atomic<int>* ran, Rejections* rejections,
                     Deadline deadline = Deadline::Infinite()) {
  QueryJob job;
  job.deadline = deadline;
  job.run = [ran] { ran->fetch_add(1); };
  job.reject = [rejections](ErrorCode code) { rejections->Add(code); };
  return job;
}

/// Spins until `done()` holds; false after 5 s.
template <typename Pred>
bool WaitFor(Pred done) {
  const Deadline deadline(5.0);
  while (!done()) {
    if (deadline.Expired()) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(AdmissionQueueTest, RunsJobsInFifoOrderWithOneExecutor) {
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/64);
  Mutex order_mu;
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    QueryJob job;
    job.run = [&, i] {
      MutexLock lock(order_mu);
      order.push_back(i);
      done.fetch_add(1);
    };
    job.reject = [](ErrorCode) { ADD_FAILURE() << "unexpected reject"; };
    queue.Submit(std::move(job));
  }
  EXPECT_EQ(queue.queued(), 8u);
  std::thread executor([&] { queue.RunExecutor(); });
  EXPECT_TRUE(WaitFor([&] { return done.load() == 8; }));
  queue.Drain();
  executor.join();
  MutexLock lock(order_mu);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(AdmissionQueueTest, ShedsOnceRunningPlusQueuedReachInflightPlusQueue) {
  // No executor runs, so nothing leaves the queue: at (1, 2) it holds
  // three jobs and sheds the other 37. The bound is max_inflight +
  // max_queue and nothing else.
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/2);
  std::atomic<int> ran{0};
  Rejections rejections;
  for (int i = 0; i < 40; ++i) queue.Submit(CountingJob(&ran, &rejections));
  EXPECT_EQ(queue.queued(), 3u);
  EXPECT_EQ(queue.shed_total(), 37u);
  const std::vector<ErrorCode> codes = rejections.codes();
  ASSERT_EQ(codes.size(), 37u);
  for (ErrorCode code : codes) EXPECT_EQ(code, ErrorCode::kOverloaded);
  EXPECT_GT(queue.RetryAfterSeconds(), 0.0);
  queue.Drain();
  EXPECT_EQ(ran.load(), 0);
}

TEST(AdmissionQueueTest, ZeroQueueShedsAllButOne) {
  // One slot and no queue: of 8 submissions at once, 1 runs and 7 shed
  // (the shape ServeE2eTest.OverloadShedsWithRetryAfter drives over
  // the wire).
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/0);
  std::atomic<int> ran{0};
  Rejections rejections;
  for (int i = 0; i < 8; ++i) queue.Submit(CountingJob(&ran, &rejections));
  EXPECT_EQ(queue.shed_total(), 7u);
  EXPECT_EQ(rejections.codes().size(), 7u);
  std::thread executor([&] { queue.RunExecutor(); });
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 1; }));
  queue.Drain();
  executor.join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(rejections.codes().size(), 7u);
}

TEST(AdmissionQueueTest, ExpiredDeadlineIsRejectedAtDequeueAndNeverRuns) {
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/8);
  std::atomic<int> expired_ran{0};
  std::atomic<int> live_ran{0};
  Rejections rejections;
  queue.Submit(CountingJob(&expired_ran, &rejections, Deadline(0.0)));
  queue.Submit(CountingJob(&live_ran, &rejections));
  std::thread executor([&] { queue.RunExecutor(); });
  EXPECT_TRUE(WaitFor([&] { return live_ran.load() == 1; }));
  queue.Drain();
  executor.join();
  EXPECT_EQ(expired_ran.load(), 0);
  const std::vector<ErrorCode> codes = rejections.codes();
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(queue.shed_total(), 0u);
}

TEST(AdmissionQueueTest, DrainRejectsQueuedAndLaterJobs) {
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/4);
  std::atomic<int> ran{0};
  Rejections rejections;
  for (int i = 0; i < 5; ++i) queue.Submit(CountingJob(&ran, &rejections));
  ASSERT_EQ(queue.queued(), 5u);
  queue.Drain();
  EXPECT_EQ(rejections.codes().size(), 5u);
  queue.Submit(CountingJob(&ran, &rejections));
  const std::vector<ErrorCode> codes = rejections.codes();
  ASSERT_EQ(codes.size(), 6u);
  for (ErrorCode code : codes) EXPECT_EQ(code, ErrorCode::kDraining);
  EXPECT_EQ(queue.shed_total(), 0u);  // Drain rejections are not sheds.
  // An executor started after Drain returns at once.
  std::thread executor([&] { queue.RunExecutor(); });
  executor.join();
  queue.Drain();  // Idempotent.
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(queue.queued(), 0u);
  EXPECT_EQ(obs::Registry::Instance().GaugeValue("serve.admission_queued"),
            0);
}

TEST(AdmissionQueueTest, RetryAfterFollowsServiceTime) {
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/64);
  constexpr int kJobs = 20;
  std::atomic<int> done{0};
  for (int i = 0; i < kJobs; ++i) {
    QueryJob job;
    job.run = [&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      done.fetch_add(1);
    };
    job.reject = [](ErrorCode) { ADD_FAILURE() << "unexpected reject"; };
    queue.Submit(std::move(job));
  }
  // Nothing has run yet: 20 queued jobs at the 0.1 s prior.
  EXPECT_DOUBLE_EQ(queue.RetryAfterSeconds(), kJobs * 0.1);
  std::thread executor([&] { queue.RunExecutor(); });
  ASSERT_TRUE(WaitFor([&] { return done.load() == kJobs; }));

  // Hold the one slot so the backlog is exactly one job.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  QueryJob blocker;
  blocker.run = [&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  blocker.reject = [](ErrorCode) { ADD_FAILURE() << "unexpected reject"; };
  queue.Submit(std::move(blocker));
  ASSERT_TRUE(WaitFor([&] { return started.load(); }));
  ASSERT_EQ(queue.inflight(), 1u);
  ASSERT_EQ(queue.queued(), 0u);
  const double retry_after = queue.RetryAfterSeconds();
  EXPECT_LT(retry_after, 0.1);   // Fell from the prior toward ~10 ms...
  EXPECT_GE(retry_after, 0.05);  // ...and the floor holds.
  release.store(true);
  queue.Drain();
  executor.join();
}

// Submitters race Drain against running executors: every job is run or
// rejected exactly once, and the counts return to zero.
TEST(AdmissionQueueTest, SubmitRacingDrainSettlesEveryJobOnce) {
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 500;
  constexpr int kExecutors = 3;
  constexpr int kTotal = kSubmitters * kJobsEach;
  AdmissionQueue queue(kExecutors, /*max_queue=*/64);
  std::vector<std::atomic<int>> settled(kTotal);
  std::atomic<int> submitted{0};
  std::atomic<int> ran{0};
  std::atomic<int> shed{0};
  std::atomic<int> drained{0};

  std::vector<std::thread> executors;
  for (int e = 0; e < kExecutors; ++e) {
    executors.emplace_back([&] { queue.RunExecutor(); });
  }
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        const int index = s * kJobsEach + j;
        QueryJob job;
        job.run = [&, index] {
          settled[index].fetch_add(1);
          ran.fetch_add(1);
        };
        job.reject = [&, index](ErrorCode code) {
          settled[index].fetch_add(1);
          if (code == ErrorCode::kOverloaded) {
            shed.fetch_add(1);
          } else {
            EXPECT_EQ(code, ErrorCode::kDraining);
            drained.fetch_add(1);
          }
        };
        queue.Submit(std::move(job));
        submitted.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(WaitFor([&] { return submitted.load() >= kTotal / 2; }));
  queue.Drain();
  for (std::thread& t : submitters) t.join();
  for (std::thread& t : executors) t.join();

  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(settled[i].load(), 1) << "job " << i;
  }
  EXPECT_EQ(ran.load() + shed.load() + drained.load(), kTotal);
  EXPECT_EQ(static_cast<uint64_t>(shed.load()), queue.shed_total());
  EXPECT_EQ(queue.inflight(), 0u);
  EXPECT_EQ(queue.queued(), 0u);
}

}  // namespace
}  // namespace cqa::serve
