#include "serve/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <thread>
#include <utility>

namespace cqa::serve {

namespace {

uint64_t CurrentThreadHash() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
}

}  // namespace

EventLoop::EventLoop(std::string name) : name_(std::move(name)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (ok()) {
    struct epoll_event ev;
    ev.events = EPOLLIN;  // Level-triggered: re-fires until drained.
    ev.data.ptr = nullptr;  // nullptr marks the wake fd.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EventLoop::~EventLoop() {
  RunMailbox();  // Late Post()ed cleanups still run.
  FlushGraveyard();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Run() {
  loop_thread_id_.store(CurrentThreadHash(), std::memory_order_relaxed);
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  while (true) {
    const int n =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, NextTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // Unrecoverable epoll failure; loop dies quietly.
    }
    // One batch: shield handlers Destroy()ed by earlier events in it.
    dispatching_ = true;
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      EpollHandler* handler = static_cast<EpollHandler*>(events[i].data.ptr);
      if (handler == nullptr) {
        woken = true;
        continue;
      }
      if (dead_.find(handler) != dead_.end()) continue;
      handler->OnEvents(events[i].events);
    }
    dispatching_ = false;
    dead_.clear();
    FlushGraveyard();
    if (woken) DrainWake();
    RunMailbox();
    RunDueTimers();
    if (stop_.load(std::memory_order_acquire)) {
      RunMailbox();  // Stop raced with a final Post; drain once more.
      break;
    }
  }
  loop_thread_id_.store(0, std::memory_order_relaxed);
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  if (wake_fd_ >= 0) {
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void EventLoop::Post(std::function<void()> fn) {
  {
    cqa::MutexLock lock(mailbox_mu_);
    mailbox_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::RunAfter(double seconds, std::function<void()> fn) {
  const auto delay = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(seconds, 0.0)));
  timers_.push_back(Timer{Clock::now() + delay, next_timer_seq_++,
                          std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<Timer>());
}

bool EventLoop::Add(int fd, uint32_t events, EpollHandler* handler) {
  struct epoll_event ev;
  ev.events = events;
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EventLoop::Mod(int fd, uint32_t events, EpollHandler* handler) {
  struct epoll_event ev;
  ev.events = events;
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::Destroy(int fd, EpollHandler* handler) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Deletion is ALWAYS deferred (to the end of the dispatch batch or
  // the current mailbox run): a handler may Destroy itself from inside
  // one of its own member functions, and callers up the stack may still
  // read its state before unwinding.
  dead_.insert(handler);
  graveyard_.push_back(handler);
}

bool EventLoop::InLoopThread() const {
  return loop_thread_id_.load(std::memory_order_relaxed) ==
         CurrentThreadHash();
}

void EventLoop::DrainWake() {
  uint64_t counter = 0;
  while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
  }
}

void EventLoop::RunMailbox() {
  std::vector<std::function<void()>> batch;
  {
    cqa::MutexLock lock(mailbox_mu_);
    batch.swap(mailbox_);
  }
  for (std::function<void()>& fn : batch) fn();
  if (!dispatching_) FlushGraveyard();
}

int EventLoop::NextTimeoutMs() const {
  if (timers_.empty()) return -1;
  const auto wait = timers_.front().deadline - Clock::now();
  if (wait <= Clock::duration::zero()) return 0;
  // Round up so the loop never wakes just before a deadline and spins.
  const int64_t ms =
      std::chrono::ceil<std::chrono::milliseconds>(wait).count();
  return static_cast<int>(std::min<int64_t>(ms, INT32_MAX));
}

void EventLoop::RunDueTimers() {
  // Collect first: a timer body may arm new timers, which then wait for
  // the next wakeup even when already due.
  const Clock::time_point now = Clock::now();
  std::vector<std::function<void()>> due;
  while (!timers_.empty() && timers_.front().deadline <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<Timer>());
    due.push_back(std::move(timers_.back().fn));
    timers_.pop_back();
  }
  for (std::function<void()>& fn : due) fn();
  if (!dispatching_) FlushGraveyard();
}

void EventLoop::FlushGraveyard() {
  for (EpollHandler* h : graveyard_) delete h;
  graveyard_.clear();
  dead_.clear();
}

}  // namespace cqa::serve
