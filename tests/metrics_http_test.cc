// Tests of serve/metrics_http — the HTTP endpoints CqadServer serves on
// its loop 0 with metrics_port = 0: request-line routing (the whole
// parser surface), the health flip between serving and draining, real
// socket round trips, the concurrency semantics of /debug/pprof/profile
// (overlap → 409, drain mid-profile → partial 200 while /metrics
// scrapes keep answering), the head deadline, and the invariant that no
// HTTP connection creates a thread.

#include "serve/metrics_http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "serve/server.h"
#include "serve_test_util.h"
#ifndef CQABENCH_NO_OBS
#include "obs/profiler.h"
#endif

namespace cqa::serve {
namespace {

using testing::ConnectLoopback;
using testing::HoldDrainOpen;
using testing::HttpGet;

// True when this build can actually run a collection (the endpoint
// answers 501 otherwise — NO_OBS or sanitizer builds).
bool ProfilerUsable() {
#ifdef CQABENCH_NO_OBS
  return false;
#else
  return obs::Profiler::kAvailable;
#endif
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The dataset behind HoldDrainOpen's slow query, built once per process.
const std::string& DataDir() {
  static const testing::NoisyTpchDir dir("metrics_http");
  static const std::string path = dir.path();
  return path;
}

// A started cqad with its HTTP endpoints on an ephemeral port.
std::unique_ptr<CqadServer> StartServer(size_t workers = 4) {
  ServerOptions options;
  options.workers = workers;
  options.metrics_port = 0;
  auto server = std::make_unique<CqadServer>(options);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  EXPECT_GT(server->metrics_port(), 0);
  return server;
}

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(MetricsHttpRoutingTest, MetricsServesTheBodyProvider) {
  auto server = StartServer();
  const std::string response = HttpGet(server->metrics_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  // The body is the registry's exposition; gauges are live in every
  // build mode.
  EXPECT_NE(response.find("\r\n\r\n# TYPE cqa_"), std::string::npos);
  EXPECT_NE(response.find("cqa_serve_connections_open"), std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(HttpGet(server->metrics_port(), "/metrics?format=raw")
                .find("200 OK"),
            std::string::npos);
}

TEST(MetricsHttpRoutingTest, HealthzTracksTheProbe) {
  auto server = StartServer();
  std::string response = HttpGet(server->metrics_port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok\n"), std::string::npos);

  std::thread holder = HoldDrainOpen(server->port(), DataDir(), 1.0);
  server->RequestDrain();
  response = HttpGet(server->metrics_port(), "/healthz");
  EXPECT_NE(response.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(response.find("draining\n"), std::string::npos);
  server->Wait();
  holder.join();
}

TEST(MetricsHttpRoutingTest, RejectsEverythingElse) {
  auto server = StartServer();
  const int port = server->metrics_port();
  // Raw request lines, including ones HttpGet cannot produce.
  const auto send_line = [port](const std::string& line) {
    const int fd = ConnectLoopback(port);
    if (fd < 0) return std::string();
    const std::string request = line + "\r\n\r\n";
    (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    std::string response;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
  };
  EXPECT_NE(send_line("POST /metrics HTTP/1.1").find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/other").find("404 Not Found"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/").find("404"), std::string::npos);
  EXPECT_NE(send_line("garbage").find("400 Bad Request"), std::string::npos);
  EXPECT_NE(send_line("").find("400"), std::string::npos);
}

// Serial scrapes over TCP: each connection gets one full response.
TEST(MetricsHttpSocketTest, ServesScrapesOverTcp) {
  auto server = StartServer();
  for (int round = 0; round < 2; ++round) {  // Serial reuse works.
    const std::string response = HttpGet(server->metrics_port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("cqa_serve_connections_open"), std::string::npos);
  }
  server->RequestDrain();
  server->Wait();
  server->Wait();  // Idempotent.
}

TEST(MetricsHttpRoutingTest, PprofEndpointsRoute) {
  auto server = StartServer();
  const int port = server->metrics_port();
  const std::string index = HttpGet(port, "/debug/pprof/");
  EXPECT_NE(index.find("200 OK"), std::string::npos);
  EXPECT_NE(index.find("profile?seconds="), std::string::npos);
  // Both spellings of the index route.
  EXPECT_NE(HttpGet(port, "/debug/pprof").find("200 OK"), std::string::npos);

  const std::string heap = HttpGet(port, "/debug/pprof/heap");
  EXPECT_NE(heap.find("200 OK"), std::string::npos);
  EXPECT_NE(heap.find("rss_bytes"), std::string::npos);

  const std::string threads = HttpGet(port, "/debug/pprof/threads");
  EXPECT_NE(threads.find("200 OK"), std::string::npos);
  EXPECT_NE(threads.find("tid"), std::string::npos);

  EXPECT_NE(HttpGet(port, "/debug/pprof/goroutine").find("404"),
            std::string::npos);
}

TEST(MetricsHttpRoutingTest, ProfileRefusesWhileDraining) {
  auto server = StartServer();
  std::thread holder = HoldDrainOpen(server->port(), DataDir(), 1.0);
  server->RequestDrain();
  const std::string response =
      HttpGet(server->metrics_port(), "/debug/pprof/profile?seconds=1");
  server->Wait();
  holder.join();
  if (!ProfilerUsable()) {
    EXPECT_NE(response.find("501"), std::string::npos) << response;
    return;
  }
  EXPECT_NE(response.find("503 Service Unavailable"), std::string::npos)
      << response;
  EXPECT_NE(response.find("draining"), std::string::npos);
}

TEST(MetricsHttpRoutingTest, ProfileServesGzipAndFoldedFormats) {
  if (!ProfilerUsable()) {
    GTEST_SKIP() << "profiler compiled out or sanitizer build: the "
                    "endpoint answers 501 (covered above)";
  }
  auto server = StartServer();
  const int port = server->metrics_port();
  const std::string gz =
      HttpGet(port, "/debug/pprof/profile?seconds=0.2&hz=199");
  EXPECT_NE(gz.find("200 OK"), std::string::npos);
  EXPECT_NE(gz.find("application/octet-stream"), std::string::npos);
  const size_t body = gz.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  ASSERT_GT(gz.size(), body + 6);
  EXPECT_EQ(static_cast<uint8_t>(gz[body + 4]), 0x1F);  // gzip magic
  EXPECT_EQ(static_cast<uint8_t>(gz[body + 5]), 0x8B);

  const std::string folded =
      HttpGet(port, "/debug/pprof/profile?seconds=0.2&hz=199&fold=1");
  EXPECT_NE(folded.find("200 OK"), std::string::npos);
  EXPECT_NE(folded.find("text/plain"), std::string::npos);
}

TEST(MetricsHttpSocketTest, StartFailsOnOccupiedPort) {
  auto first = StartServer();
  ServerOptions occupied;
  occupied.metrics_port = first->metrics_port();
  CqadServer second(occupied);
  std::string error;
  EXPECT_FALSE(second.Start(&error));
  EXPECT_NE(error.find("metrics"), std::string::npos) << error;
}

// Two profile collections racing: exactly one may run (the other gets
// 409 Conflict). This is the overlap contract the /debug/pprof/profile
// docs promise.
TEST(MetricsHttpConcurrencyTest, OverlappingProfileRequestsConflict) {
  if (!ProfilerUsable()) {
    GTEST_SKIP() << "profiler compiled out or sanitizer build; overlap "
                    "handling needs a live collection";
  }
  auto server = StartServer();
  const int port = server->metrics_port();
  std::string first;
  std::thread a([&first, port] {
    first = HttpGet(port, "/debug/pprof/profile?seconds=1");
  });
  // Let the first collection actually begin before colliding with it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::string second = HttpGet(port, "/debug/pprof/profile?seconds=1");
  a.join();

  EXPECT_NE(first.find("200 OK"), std::string::npos) << first;
  EXPECT_NE(second.find("409 Conflict"), std::string::npos) << second;
  EXPECT_NE(second.find("in progress"), std::string::npos) << second;
}

// A long profile in flight does not block scrapes or health probes (it
// holds its connection, not the loop), and a drain beginning
// mid-profile cuts the window short: the profile returns early with
// 200 + whatever was captured, while /healthz flips to 503 and scrapes
// keep answering until the drain ends.
TEST(MetricsHttpConcurrencyTest, ScrapesAnswerDuringProfileAndDrainAborts) {
  if (!ProfilerUsable()) {
    GTEST_SKIP() << "profiler compiled out or sanitizer build; the drain "
                    "abort needs a live collection";
  }
  auto server = StartServer();
  const int port = server->metrics_port();
  const auto start = std::chrono::steady_clock::now();
  std::string profile;
  std::thread collector([&profile, port] {
    profile = HttpGet(port, "/debug/pprof/profile?seconds=30");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Mid-profile, the other endpoints keep answering.
  EXPECT_NE(HttpGet(port, "/metrics").find("cqa_serve_connections_open"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);

  // Graceful drain begins: healthz flips, the collection aborts early.
  std::thread holder = HoldDrainOpen(server->port(), DataDir(), 1.5);
  server->RequestDrain();
  EXPECT_NE(HttpGet(port, "/healthz").find("503"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/metrics").find("cqa_serve_connections_open"),
            std::string::npos)
      << "scrapes must keep working during drain";
  collector.join();
  const double elapsed = SecondsSince(start);
  server->Wait();
  holder.join();

  EXPECT_NE(profile.find("200 OK"), std::string::npos)
      << "partial profile still ships";
  EXPECT_LT(elapsed, 10.0) << "drain must cut the 30s window short";
}

// Every HTTP connection is a handler on loop 0: scrapes (and the
// profile window, which adds only the profiler's own aggregator) leave
// the process's thread count where it was.
TEST(MetricsHttpConcurrencyTest, ScrapesSpawnNoThreads) {
  // The server's executor host grows the shared pool to `workers`
  // threads asynchronously; grow it first so that cannot land mid-count.
  ThreadPool::Shared().EnsureWorkers(4);
  auto server = StartServer(4);
  const int port = server->metrics_port();
  ASSERT_NE(HttpGet(port, "/metrics").find("200 OK"), std::string::npos);
  const size_t before = ThreadCount();
  for (int i = 0; i < 50; ++i) {
    ASSERT_NE(HttpGet(port, i % 2 == 0 ? "/metrics" : "/healthz")
                  .find("200 OK"),
              std::string::npos);
  }
  EXPECT_EQ(ThreadCount(), before);
}

// A peer that connects and sends nothing is closed once the head
// deadline passes, while the listener keeps answering everyone else.
TEST(MetricsHttpSocketTest, IdlePeerIsClosedAfterHeadDeadline) {
  auto server = StartServer();
  const int port = server->metrics_port();
  const int idle = ConnectLoopback(port);
  ASSERT_GE(idle, 0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
  const timeval patience{5, 0};
  ::setsockopt(idle, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof(patience));
  char byte;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0) << "expected EOF";
  const double waited = SecondsSince(start);
  ::close(idle);
  EXPECT_GE(waited, kHttpHeadTimeoutSeconds - 0.1);
  EXPECT_LT(waited, kHttpHeadTimeoutSeconds + 1.0);
  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
}

}  // namespace
}  // namespace cqa::serve
