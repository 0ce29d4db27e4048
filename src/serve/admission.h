// serve/admission — cqad's one admission queue: the bounded FIFO between
// the reactor's event loops and query execution. A CQA query can burn
// seconds of CPU; without a bound, a burst of requests would queue
// unboundedly and every client would time out. Event loops Submit parsed
// queries here and never block; `max_inflight` executor loops, parked on
// the shared ThreadPool by the server (this class creates no threads),
// pop and run them. Once running plus queued jobs reach
// `max_inflight + max_queue`, Submit sheds with kOverloaded, and the
// client's retry_after_s comes from observed service times. A job whose
// deadline passed while it waited is rejected at dequeue with
// kDeadlineExceeded and never runs; Drain rejects everything still
// queued with kDraining.
#ifndef CQABENCH_SERVE_ADMISSION_H_
#define CQABENCH_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace cqa::serve {

/// One unit of deferred query work.
struct QueryJob {
  Deadline deadline = Deadline::Infinite();
  /// Executes the query and delivers its response. Runs on an executor.
  std::function<void()> run;
  /// Delivers an error response: kOverloaded or kDraining on the thread
  /// that called Submit or Drain, kDeadlineExceeded on an executor.
  /// Always runs outside the queue's lock, so it may call
  /// RetryAfterSeconds().
  std::function<void(ErrorCode)> reject;
};

/// Thread-safe bounded FIFO of QueryJobs. The server calls Submit from
/// event loops, hosts `max_inflight` RunExecutor loops on pool threads,
/// and calls Drain on shutdown.
class AdmissionQueue {
 public:
  /// `max_inflight` is how many RunExecutor loops the server hosts;
  /// `max_queue` is how many more jobs may wait beyond them.
  AdmissionQueue(size_t max_inflight, size_t max_queue);

  /// Queues job, or rejects it at once: kOverloaded when running plus
  /// queued jobs already reach max_inflight + max_queue, kDraining after
  /// Drain. Never blocks.
  void Submit(QueryJob job) CQA_EXCLUDES(mu_);

  /// Executor loop: pops jobs in FIFO order and runs each one whose
  /// deadline has not passed, timing it for the retry-after estimate.
  /// Returns once Drain has been called and the queue is empty.
  void RunExecutor() CQA_EXCLUDES(mu_);

  /// Stops intake, rejects every queued job with kDraining, and releases
  /// the executor loops; jobs already running finish. Idempotent.
  void Drain() CQA_EXCLUDES(mu_);

  /// Hint for shed clients: the expected time until a slot frees up,
  /// estimated as (queued + running) / max_inflight times the EWMA
  /// service time, clamped to [0.05, 60] seconds.
  double RetryAfterSeconds() const CQA_EXCLUDES(mu_);

  size_t inflight() const CQA_EXCLUDES(mu_);
  size_t queued() const CQA_EXCLUDES(mu_);
  uint64_t shed_total() const CQA_EXCLUDES(mu_);

 private:
  /// Mirrors running_ and queue_.size() into the gauges.
  void PublishLocked() CQA_REQUIRES(mu_);

  const size_t max_inflight_;
  const size_t capacity_;  // max_inflight + max_queue.
  // Process-wide gauges for /metrics and `stats`. Updated
  // unconditionally (not via the NO_OBS-gated macros): admission state
  // must stay accurate in every build mode.
  obs::Gauge* const inflight_gauge_;
  obs::Gauge* const queued_gauge_;
  mutable Mutex mu_;
  CondVar work_cv_;  // Signalled on Submit and Drain.
  std::deque<QueryJob> queue_ CQA_GUARDED_BY(mu_);
  size_t running_ CQA_GUARDED_BY(mu_) = 0;
  uint64_t shed_total_ CQA_GUARDED_BY(mu_) = 0;
  bool draining_ CQA_GUARDED_BY(mu_) = false;
  double ewma_service_seconds_ CQA_GUARDED_BY(mu_) = 0.1;  // Optimistic prior.
};

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_ADMISSION_H_
