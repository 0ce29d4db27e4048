#include "serve/admission.h"

#include <algorithm>
#include <utility>

namespace cqa::serve {

AdmissionQueue::AdmissionQueue(size_t max_inflight, size_t max_queue)
    : max_inflight_(max_inflight),
      capacity_(max_inflight + max_queue),
      inflight_gauge_(
          obs::Registry::Instance().GetGauge("serve.admission_inflight")),
      queued_gauge_(
          obs::Registry::Instance().GetGauge("serve.admission_queued")) {}

void AdmissionQueue::PublishLocked() {
  inflight_gauge_->Set(static_cast<int64_t>(running_));
  queued_gauge_->Set(static_cast<int64_t>(queue_.size()));
}

void AdmissionQueue::Submit(QueryJob job) {
  MutexLock lock(mu_);
  if (!draining_ && running_ + queue_.size() < capacity_) {
    queue_.push_back(std::move(job));
    PublishLocked();
    CQA_OBS_OBSERVE("serve.admission_queue_depth", queue_.size());
    lock.Unlock();
    work_cv_.NotifyOne();
    return;
  }
  const bool shed = !draining_;
  if (shed) {
    ++shed_total_;
    CQA_OBS_COUNT("serve.admission_shed");
  }
  lock.Unlock();
  job.reject(shed ? ErrorCode::kOverloaded : ErrorCode::kDraining);
}

void AdmissionQueue::RunExecutor() {
  for (;;) {
    QueryJob job;
    bool expired = false;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !draining_) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // Drained.
      job = std::move(queue_.front());
      queue_.pop_front();
      expired = job.deadline.Expired();
      if (!expired) ++running_;
      PublishLocked();
    }
    if (expired) {
      CQA_OBS_COUNT("serve.admission_expired");
      job.reject(ErrorCode::kDeadlineExceeded);
      continue;
    }
    CQA_OBS_COUNT("serve.admission_admitted");
    const Stopwatch service;
    job.run();
    const double service_seconds = service.ElapsedSeconds();
    MutexLock lock(mu_);
    --running_;
    PublishLocked();
    // EWMA with alpha 0.2: smooth enough to ride out one slow query,
    // fresh enough to track a workload shift within a handful of
    // requests.
    ewma_service_seconds_ =
        0.8 * ewma_service_seconds_ + 0.2 * service_seconds;
  }
}

void AdmissionQueue::Drain() {
  std::deque<QueryJob> flushed;
  {
    MutexLock lock(mu_);
    draining_ = true;
    flushed.swap(queue_);
    PublishLocked();
  }
  work_cv_.NotifyAll();
  for (QueryJob& job : flushed) job.reject(ErrorCode::kDraining);
}

double AdmissionQueue::RetryAfterSeconds() const {
  MutexLock lock(mu_);
  const double backlog = static_cast<double>(queue_.size() + running_) /
                         static_cast<double>(max_inflight_);
  return std::clamp(backlog * ewma_service_seconds_, 0.05, 60.0);
}

size_t AdmissionQueue::inflight() const {
  MutexLock lock(mu_);
  return running_;
}

size_t AdmissionQueue::queued() const {
  MutexLock lock(mu_);
  return queue_.size();
}

uint64_t AdmissionQueue::shed_total() const {
  MutexLock lock(mu_);
  return shed_total_;
}

}  // namespace cqa::serve
