// Reactor-layer unit tests: EventLoop (edge-triggered epoll + mailbox,
// deferred handler deletion, timers). The e2e tier exercises it through
// a live cqad; these tests pin the contracts in isolation.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "serve/reactor.h"

namespace cqa::serve {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

class LoopFixture : public ::testing::Test {
 protected:
  LoopFixture() : loop_("test-loop") {
    EXPECT_TRUE(loop_.ok());
    thread_ = std::thread([this] { loop_.Run(); });
  }

  ~LoopFixture() override {
    loop_.Stop();
    thread_.join();
  }

  EventLoop loop_;
  std::thread thread_;
};

TEST_F(LoopFixture, PostRunsClosureOnLoopThread) {
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop_thread{false};
  loop_.Post([&] {
    on_loop_thread.store(loop_.InLoopThread());
    ran.store(true);
  });
  const Deadline deadline(5.0);
  while (!ran.load() && !deadline.Expired()) {
  }
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(on_loop_thread.load());
  EXPECT_FALSE(loop_.InLoopThread());  // The test thread is not the loop.
}

TEST_F(LoopFixture, PostPreservesFifoOrder) {
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    loop_.Post([&, i] {
      order.push_back(i);  // Loop-thread confined: no lock needed.
      done.fetch_add(1);
    });
  }
  const Deadline deadline(5.0);
  while (done.load() < 16 && !deadline.Expired()) {
  }
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

/// Reads its pipe end and counts bytes; optionally destroys itself on
/// the first event (the self-deletion path every Conn close exercises).
class PipeReader : public EpollHandler {
 public:
  PipeReader(EventLoop* loop, int fd, bool self_destroy,
             std::atomic<int>* bytes, std::atomic<int>* deleted)
      : loop_(loop),
        fd_(fd),
        self_destroy_(self_destroy),
        bytes_(bytes),
        deleted_(deleted) {}

  ~PipeReader() override {
    deleted_->fetch_add(1);
    ::close(fd_);
  }

  void OnEvents(uint32_t events) override {
    if ((events & EPOLLIN) == 0) return;
    char buf[256];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof(buf))) > 0) {
      bytes_->fetch_add(static_cast<int>(n));
    }
    if (self_destroy_) {
      loop_->Destroy(fd_, this);
      // The loop defers deletion: members must still be readable here
      // (this is the invariant the deferred graveyard exists for).
      EXPECT_TRUE(self_destroy_);
    }
  }

 private:
  EventLoop* const loop_;
  const int fd_;
  const bool self_destroy_;
  std::atomic<int>* const bytes_;
  std::atomic<int>* const deleted_;
};

TEST_F(LoopFixture, EdgeTriggeredHandlerSeesAllBytes) {
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  std::atomic<int> bytes{0};
  std::atomic<int> deleted{0};
  auto* reader = new PipeReader(&loop_, fds[0], /*self_destroy=*/false,
                                &bytes, &deleted);
  loop_.Post([&, reader] {
    ASSERT_TRUE(loop_.Add(fds[0], EPOLLIN | EPOLLET, reader));
  });
  ASSERT_EQ(::write(fds[1], "hello", 5), 5);
  Deadline deadline(5.0);
  while (bytes.load() < 5 && !deadline.Expired()) {
  }
  EXPECT_EQ(bytes.load(), 5);
  loop_.Post([&, reader] { loop_.Destroy(fds[0], reader); });
  deadline = Deadline(5.0);
  while (deleted.load() == 0 && !deadline.Expired()) {
  }
  EXPECT_EQ(deleted.load(), 1);
  ::close(fds[1]);
}

TEST_F(LoopFixture, SelfDestroyingHandlerIsDeletedOnceAfterDispatch) {
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  std::atomic<int> bytes{0};
  std::atomic<int> deleted{0};
  auto* reader = new PipeReader(&loop_, fds[0], /*self_destroy=*/true,
                                &bytes, &deleted);
  loop_.Post([&, reader] {
    ASSERT_TRUE(loop_.Add(fds[0], EPOLLIN | EPOLLET, reader));
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  const Deadline deadline(5.0);
  while (deleted.load() == 0 && !deadline.Expired()) {
  }
  EXPECT_EQ(deleted.load(), 1);
  EXPECT_EQ(bytes.load(), 1);
  ::close(fds[1]);
}

TEST(EventLoopTest, StopWithPendingPostsStillRunsThem) {
  EventLoop loop("stop-loop");
  ASSERT_TRUE(loop.ok());
  std::thread t([&] { loop.Run(); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    loop.Post([&] { ran.fetch_add(1); });
  }
  loop.Stop();
  t.join();
  // Posts enqueued before Stop() are drained by the final mailbox runs
  // (in Run's stop path or the destructor).
  EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

// Armed out of order before Run (pre-Run setup is allowed): they fire on
// the loop thread, by deadline, with equal deadlines in arming order.
TEST(EventLoopTimerTest, RunAfterFiresOnLoopThreadInDeadlineOrder) {
  EventLoop loop("timer-loop");
  ASSERT_TRUE(loop.ok());
  std::vector<int> order;  // Loop-thread confined: no lock needed.
  std::atomic<int> fired{0};
  std::atomic<int> off_loop{0};
  const auto arm = [&](double seconds, int tag) {
    loop.RunAfter(seconds, [&, tag] {
      if (!loop.InLoopThread()) off_loop.fetch_add(1);
      order.push_back(tag);
      fired.fetch_add(1);
    });
  };
  const Stopwatch watch;
  arm(0.15, 3);
  arm(0.05, 1);
  arm(0.10, 2);
  arm(0.15, 4);  // Armed after tag 3 with the same delay: fires after it.
  arm(0.0, 0);
  std::thread t([&] { loop.Run(); });
  const Deadline deadline(5.0);
  while (fired.load() < 5 && !deadline.Expired()) {
  }
  const double elapsed = watch.ElapsedSeconds();
  loop.Stop();
  t.join();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(off_loop.load(), 0);
  EXPECT_GE(elapsed, 0.15) << "a timer fired before its deadline";
}

TEST_F(LoopFixture, TimerArmedFromPostedClosureFires) {
  std::atomic<bool> fired{false};
  std::atomic<bool> on_loop_thread{false};
  const Stopwatch watch;
  loop_.Post([&] {
    loop_.RunAfter(0.05, [&] {
      on_loop_thread.store(loop_.InLoopThread());
      fired.store(true);
    });
  });
  const Deadline deadline(5.0);
  while (!fired.load() && !deadline.Expired()) {
  }
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(on_loop_thread.load());
  EXPECT_GE(watch.ElapsedSeconds(), 0.05);
}

// The documented Stop contract: a timer still pending when Run()
// returns never runs, and its closure (with whatever it captured) is
// destroyed with the loop — nothing leaks.
TEST(EventLoopTimerTest, TimersPendingAtStopNeverRunAndAreDestroyed) {
  auto captured = std::make_shared<int>(7);
  std::weak_ptr<int> watch = captured;
  std::atomic<bool> ran{false};
  {
    EventLoop loop("stop-timer-loop");
    ASSERT_TRUE(loop.ok());
    loop.RunAfter(30.0, [&ran, captured] { ran.store(true); });
    captured.reset();
    std::thread t([&] { loop.Run(); });
    loop.Stop();
    t.join();
    EXPECT_FALSE(ran.load());
    EXPECT_FALSE(watch.expired()) << "the loop still owns the closure";
  }
  EXPECT_FALSE(ran.load());
  EXPECT_TRUE(watch.expired()) << "~EventLoop destroys pending timers";
}

}  // namespace
}  // namespace cqa::serve
