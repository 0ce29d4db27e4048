// serve/reactor — the single owner of epoll/poll syscalls in this tree
// (lint check 10, mirroring the lock-wrapper rule of check 9). An
// EventLoop is one edge-triggered epoll instance plus an eventfd-woken
// mailbox of closures; cqad runs `workers` of them, each driven by one
// thread that server.cc constructs (thread construction stays confined
// to its allow-list). Handlers implement EpollHandler and are invoked
// on the loop thread only, so per-connection state needs no locking —
// cross-thread work enters a loop exclusively through Post().
//
// Deletion safety: one epoll_wait batch can carry events for a handler
// an earlier event in the same batch destroyed. Destroy() removes the
// fd, shields the rest of the batch via a dead-set, and deletes the
// handler after the batch finishes.
#ifndef CQABENCH_SERVE_REACTOR_H_
#define CQABENCH_SERVE_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"

namespace cqa::serve {

/// Per-fd event callback, invoked on the owning loop's thread.
class EpollHandler {
 public:
  virtual ~EpollHandler() = default;

  /// events is the raw epoll bitmask (EPOLLIN | EPOLLOUT | ...).
  virtual void OnEvents(uint32_t events) = 0;
};

/// One edge-triggered epoll event loop. Construct, register fds, then
/// dedicate a thread to Run(); every other method is safe to call from
/// any thread unless marked loop-thread-only.
class EventLoop {
 public:
  /// name labels the loop in logs/diagnostics, e.g. "loop-0".
  explicit EventLoop(std::string name);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False if epoll/eventfd creation failed at construction.
  bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }
  const std::string& name() const { return name_; }

  /// Runs the loop until Stop(); call from the loop's dedicated thread.
  void Run();

  /// Asks Run() to return after draining the mailbox. Any thread.
  void Stop();

  /// Queues fn to run on the loop thread and wakes the loop. Any
  /// thread. Closures queued after Stop() still run before Run()
  /// returns; closures posted after Run() returned run in ~EventLoop.
  void Post(std::function<void()> fn) CQA_EXCLUDES(mailbox_mu_);

  /// Runs fn on the loop thread once `seconds` have passed. Timers fire
  /// in deadline order (ties in arming order), after the event batch and
  /// mailbox of the same wakeup. A timer that must not outlive an object
  /// looks the object up when it fires (nothing cancels it). Timers still
  /// pending when Run() returns never run; their closures are destroyed
  /// with the loop. Loop thread or pre-Run setup.
  void RunAfter(double seconds, std::function<void()> fn);

  /// Registers fd with the given epoll event mask (caller includes
  /// EPOLLET for edge-triggered handlers); events route to *handler.
  /// Loop thread or pre-Run setup. Returns false on epoll_ctl failure.
  bool Add(int fd, uint32_t events, EpollHandler* handler);

  /// Rearms fd with a new mask. Loop thread only.
  bool Mod(int fd, uint32_t events, EpollHandler* handler);

  /// Unregisters fd, shields handler for the rest of the current
  /// dispatch batch, and deletes it once the batch completes. The
  /// caller must not touch *handler afterwards; fd is NOT closed (the
  /// handler's destructor owns that). Loop thread only.
  void Destroy(int fd, EpollHandler* handler);

  /// True when called on the thread currently inside Run().
  bool InLoopThread() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Timer {
    Clock::time_point deadline;
    uint64_t seq;  // Arming order breaks deadline ties.
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      return deadline != other.deadline ? deadline > other.deadline
                                        : seq > other.seq;
    }
  };

  void DrainWake();
  void RunMailbox() CQA_EXCLUDES(mailbox_mu_);
  void FlushGraveyard();
  /// epoll_wait timeout: -1 without timers, else ms to the next deadline.
  int NextTimeoutMs() const;
  void RunDueTimers();

  const std::string name_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; readable when the mailbox has work.
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> loop_thread_id_{0};  // std::hash of thread::id.

  cqa::Mutex mailbox_mu_;
  std::vector<std::function<void()>> mailbox_ CQA_GUARDED_BY(mailbox_mu_);

  // Loop-thread-only state (no lock by construction).
  bool dispatching_ = false;
  std::unordered_set<EpollHandler*> dead_;
  std::vector<EpollHandler*> graveyard_;
  std::vector<Timer> timers_;  // Min-heap on (deadline, seq).
  uint64_t next_timer_seq_ = 0;
};

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_REACTOR_H_
