// End-to-end serving tests: an in-process cqad (real TCP on loopback)
// under concurrent mixed-scheme load, answers cross-checked against
// single-process ApxCqa runs with the same seeds, a second wave proving
// the synopsis cache eliminates Preprocess work, wire-level protocol
// rejections, overload shedding, half-closed clients, and graceful
// drain.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cqa/apx_cqa.h"
#include "gen/tpch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "serve/access_log.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "obs/exposition.h"
#ifndef CQABENCH_NO_OBS
#include "obs/profiler.h"
#endif
#include "serve_test_util.h"
#include "storage/tbl_io.h"
#include "storage/tuple.h"

namespace cqa::serve {
namespace {

using testing::HttpGet;

constexpr const char* kQuery = testing::kNationQuery;
const char* const kSchemes[] = {"Natural", "KL", "KLM", "Cover"};

/// Shared on-disk dataset: a small noisy TPC-H instance, generated once
/// for the whole suite (every test reads, none writes).
class ServeE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new testing::NoisyTpchDir("serve_e2e");
    dir_ = new std::filesystem::path(data_->path());
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static Request MakeQueryRequest(const std::string& scheme,
                                  uint64_t seed) {
    Request request;
    request.op = "query";
    request.schema = "tpch";
    request.data = dir_->string();
    request.query = kQuery;
    request.scheme = scheme;
    request.seed = seed;
    return request;
  }

  /// The single-process ground truth: same synopses, same scheme, same
  /// seed, serial — byte-for-byte the code path the server runs.
  static std::map<std::string, double> LocalAnswers(
      const std::string& scheme, uint64_t seed) {
    Schema schema = MakeTpchSchema();
    Database db(&schema);
    std::string error;
    EXPECT_TRUE(ReadTblDirectory(&db, dir_->string(), &error)) << error;
    ConjunctiveQuery q = MustParseCq(schema, kQuery);
    ApxParams params;
    Rng rng(seed);
    CqaRunResult run =
        ApxCqa(db, q, *ParseSchemeKind(scheme), params, rng);
    std::map<std::string, double> out;
    for (const CqaAnswer& a : run.answers) {
      out[TupleToString(a.tuple)] = a.frequency;
    }
    return out;
  }

  static testing::NoisyTpchDir* data_;
  static std::filesystem::path* dir_;
};

testing::NoisyTpchDir* ServeE2eTest::data_ = nullptr;
std::filesystem::path* ServeE2eTest::dir_ = nullptr;

TEST_F(ServeE2eTest, ConcurrentMixedSchemeWavesMatchLocalRunsAndCache) {
  ServerOptions options;
  options.workers = 8;
  CqadServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Ground truth per (scheme, seed), computed once in-process.
  constexpr uint64_t kSeedsPerScheme = 25;  // 4 schemes × 25 = 100.
  std::map<std::string, std::map<std::string, double>> expected;
  for (const char* scheme : kSchemes) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      expected[std::string(scheme) + "/" + std::to_string(seed)] =
          LocalAnswers(scheme, seed);
    }
  }

  auto run_wave = [&](bool expect_all_hits) {
    constexpr size_t kClients = 100;
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kClients);
    std::vector<Response> responses(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        const char* scheme = kSchemes[i % 4];
        // Seeds cycle 1..2 so ground truth stays cheap while the wave
        // still mixes schemes × seeds across 100 concurrent requests.
        const uint64_t seed = 1 + (i / 4) % 2;
        (void)kSeedsPerScheme;
        CqaClient client;
        std::string client_error;
        if (!client.Connect("127.0.0.1", server.port(), &client_error)) {
          failures[i] = "connect: " + client_error;
          return;
        }
        Request request = MakeQueryRequest(scheme, seed);
        if (!client.Call(request, &responses[i], &client_error)) {
          failures[i] = "call: " + client_error;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t i = 0; i < kClients; ++i) {
      ASSERT_TRUE(failures[i].empty()) << failures[i];
      const Response& response = responses[i];
      ASSERT_TRUE(response.ok()) << response.error;
      EXPECT_FALSE(response.timed_out);
      if (expect_all_hits) {
        EXPECT_TRUE(response.cache_hit);
      }
      const char* scheme = kSchemes[i % 4];
      const uint64_t seed = 1 + (i / 4) % 2;
      const auto& truth =
          expected[std::string(scheme) + "/" + std::to_string(seed)];
      ASSERT_EQ(response.answers.size(), truth.size())
          << scheme << " seed " << seed;
      for (const ResponseAnswer& a : response.answers) {
        auto it = truth.find(a.tuple);
        ASSERT_NE(it, truth.end()) << "unexpected answer " << a.tuple;
        EXPECT_NEAR(a.frequency, it->second, 1e-9)
            << scheme << " seed " << seed << " " << a.tuple;
      }
    }
  };

  run_wave(/*expect_all_hits=*/false);

#ifndef CQABENCH_NO_OBS
  const uint64_t builds_before =
      obs::Registry::Instance().CounterValue("preprocess.builds");
#endif
  const uint64_t hits_before = server.engine().synopsis_cache().hits();

  run_wave(/*expect_all_hits=*/true);

  EXPECT_GT(server.engine().synopsis_cache().hits(), hits_before);
#ifndef CQABENCH_NO_OBS
  // The serving layer's core claim, metrics-asserted: the second wave
  // performed ZERO Preprocess work.
  EXPECT_EQ(obs::Registry::Instance().CounterValue("preprocess.builds"),
            builds_before);
#endif

  server.RequestDrain();
  server.Wait();
}

TEST_F(ServeE2eTest, PingAndStatsOps) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request ping;
  ping.op = "ping";
  ping.id = "p1";
  Response response;
  ASSERT_TRUE(client.Call(ping, &response, &error)) << error;
  EXPECT_TRUE(response.ok());
  EXPECT_TRUE(response.pong);
  EXPECT_EQ(response.id, "p1");

  Request stats;
  stats.op = "stats";
  ASSERT_TRUE(client.Call(stats, &response, &error)) << error;
  EXPECT_TRUE(response.ok());
  EXPECT_NE(response.server_json.find("\"draining\":false"),
            std::string::npos);
  EXPECT_FALSE(response.metrics_json.empty());

  server.RequestDrain();
  server.Wait();
}

TEST_F(ServeE2eTest, WireLevelRejections) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    // Garbage JSON in a well-formed frame → 400, connection survives
    // (the frame boundary is still trustworthy).
    CqaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error))
        << error;
    std::string payload;
    ASSERT_TRUE(client.RawCall(EncodeFrame("{definitely not json"),
                               &payload, &error))
        << error;
    Response response;
    ASSERT_TRUE(Response::FromJsonPayload(payload, &response, &error))
        << error;
    EXPECT_EQ(response.code, ErrorCode::kBadRequest);
  }
  {
    // Wrong protocol version → 426.
    CqaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error))
        << error;
    std::string payload;
    ASSERT_TRUE(client.RawCall(
        EncodeFrame(R"({"v": 99, "op": "ping"})"), &payload, &error))
        << error;
    Response response;
    ASSERT_TRUE(Response::FromJsonPayload(payload, &response, &error))
        << error;
    EXPECT_EQ(response.code, ErrorCode::kBadVersion);
  }
  {
    // Oversize frame → 413 and the server closes the connection.
    ServerOptions small;
    small.max_frame_bytes = 64;
    CqadServer tiny(small);
    ASSERT_TRUE(tiny.Start(&error)) << error;
    CqaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", tiny.port(), &error)) << error;
    std::string payload;
    ASSERT_TRUE(client.RawCall(EncodeFrame(std::string(65, ' ')), &payload,
                               &error))
        << error;
    Response response;
    ASSERT_TRUE(Response::FromJsonPayload(payload, &response, &error))
        << error;
    EXPECT_EQ(response.code, ErrorCode::kFrameTooLarge);
    tiny.RequestDrain();
    tiny.Wait();
  }
  {
    // Zero-length frame → unrecoverable framing error, connection closed
    // after a 400 reply.
    CqaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error))
        << error;
    std::string payload;
    const char zeros[4] = {0, 0, 0, 0};
    ASSERT_TRUE(client.RawCall(std::string(zeros, 4), &payload, &error))
        << error;
    Response response;
    ASSERT_TRUE(Response::FromJsonPayload(payload, &response, &error))
        << error;
    EXPECT_EQ(response.code, ErrorCode::kBadRequest);
  }

  server.RequestDrain();
  server.Wait();
}

TEST_F(ServeE2eTest, OverloadShedsWithRetryAfter) {
  ServerOptions options;
  options.workers = 8;
  options.max_inflight = 1;
  options.max_queue = 0;  // Any concurrent second request sheds.
  CqadServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr size_t kClients = 16;
  std::vector<std::thread> clients;
  std::vector<Response> responses(kClients);
  std::vector<std::string> failures(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      CqaClient client;
      std::string client_error;
      if (!client.Connect("127.0.0.1", server.port(), &client_error)) {
        failures[i] = client_error;
        return;
      }
      Request request = MakeQueryRequest("KLM", 3);
      if (!client.Call(request, &responses[i], &client_error)) {
        failures[i] = client_error;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  size_t ok = 0;
  size_t shed = 0;
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].empty()) << failures[i];
    if (responses[i].ok()) {
      ++ok;
    } else {
      ASSERT_EQ(responses[i].code, ErrorCode::kOverloaded)
          << responses[i].error;
      EXPECT_GT(responses[i].retry_after_s, 0.0);
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + shed, kClients);

  server.RequestDrain();
  server.Wait();
}

// A client that sends its query and then half-closes its socket
// (shutdown(SHUT_WR)) still reads the answer: EOF on the server's read
// side closes the connection only after the pending response flushes.
TEST_F(ServeE2eTest, HalfClosedClientStillGetsItsResponse) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval recv_timeout{30, 0};  // A missing close fails, not hangs.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  Request request = MakeQueryRequest("KL", 41);
  request.id = "half-closed";
  const std::string frame = EncodeFrame(request.ToJsonPayload());
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  FrameDecoder decoder;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    decoder.Append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "the server never closed the connection";
  ::close(fd);

  std::string payload;
  ASSERT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kFrame)
      << "no response before EOF";
  Response response;
  ASSERT_TRUE(Response::FromPayload(payload, &response, &error)) << error;
  EXPECT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.id, "half-closed");
  EXPECT_FALSE(response.answers.empty());
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kNeedMore)
      << "more than one frame for one request";

  server.RequestDrain();
  server.Wait();
}

// Zero workers would start no event loop and no executor: pings would
// still answer while every query waited forever. Start refuses it.
TEST_F(ServeE2eTest, ZeroWorkersIsRefusedAtStart) {
  ServerOptions options;
  options.workers = 0;
  CqadServer server(options);
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_EQ(error, "workers must be at least 1");
}

// htons would wrap a port outside 0-65535 (-5 becomes 65531); Start
// refuses it for either listener instead of binding somewhere else.
TEST_F(ServeE2eTest, OutOfRangePortsAreRefusedAtStart) {
  const std::pair<int, int> cases[] = {{-5, -1}, {65536, -1}, {0, 70000}};
  for (const auto& [port, metrics_port] : cases) {
    ServerOptions options;
    options.port = port;
    options.metrics_port = metrics_port;
    CqadServer server(options);
    std::string error;
    EXPECT_FALSE(server.Start(&error)) << port << " " << metrics_port;
    EXPECT_NE(error.find("port out of range"), std::string::npos) << error;
  }
}

TEST_F(ServeE2eTest, GracefulDrainCompletesInflightAndRefusesNew) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  // A request racing the drain must either complete or be told the
  // server is draining — never hang, never get a torn response.
  std::thread racer([&] {
    CqaClient client;
    std::string client_error;
    if (!client.Connect("127.0.0.1", port, &client_error)) return;
    Response response;
    if (client.Call(MakeQueryRequest("KLM", 4), &response, &client_error)) {
      EXPECT_TRUE(response.ok() ||
                  response.code == ErrorCode::kDraining)
          << response.error;
    }
  });

  server.RequestDrain();
  server.Wait();  // Must return: drain may not wedge on the racer.
  racer.join();

  // Fully drained: new connections are refused at the TCP layer.
  CqaClient late;
  std::string late_error;
  EXPECT_FALSE(late.Connect("127.0.0.1", port, &late_error));
}

// The deployment wiring cqad uses — HTTP endpoints on loop 0 of the
// serving CqadServer — under a drain
// that begins while a profile collection and a scrape are in flight: the
// scrape answers during drain, /healthz flips to 503, and the collection
// is cut short with a partial 200 instead of pinning the shutdown for
// its full window.
TEST_F(ServeE2eTest, MetricsSidecarSurvivesDrainAndAbortsProfile) {
  ServerOptions options;
  options.metrics_port = 0;
  CqadServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int metrics_port = server.metrics_port();

  // Real traffic so the registry has serving metrics to scrape.
  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Response response;
  ASSERT_TRUE(client.Call(MakeQueryRequest("Natural", 11), &response, &error))
      << error;
  ASSERT_TRUE(response.ok()) << response.error;

  EXPECT_NE(HttpGet(metrics_port, "/healthz").find("200 OK"),
            std::string::npos);

#ifndef CQABENCH_NO_OBS
  const bool profiler_usable = obs::Profiler::kAvailable;
#else
  const bool profiler_usable = false;
#endif
  std::string profile;
  std::thread collector;
  if (profiler_usable) {
    collector = std::thread([&profile, metrics_port] {
      profile = HttpGet(metrics_port, "/debug/pprof/profile?seconds=30");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }

  // A query running to its deadline keeps the drain (and with it the
  // HTTP listener) open while the probes below race it.
  std::thread holder = testing::HoldDrainOpen(server.port(), dir_->string(),
                                              1.5);
  const auto drain_start = std::chrono::steady_clock::now();
  server.RequestDrain();
  // Racing the drain: the exposition must keep answering so the last
  // scrape of a shutting-down process isn't lost.
  const std::string scrape = HttpGet(metrics_port, "/metrics");
  EXPECT_NE(scrape.find("200 OK"), std::string::npos);
  // Gauges are live in every build mode (counters compile out under
  // CQABENCH_NO_OBS), so assert on one the accept loop always sets.
  EXPECT_NE(scrape.find("cqa_serve_connections_open"), std::string::npos)
      << scrape.substr(0, 400);
  EXPECT_NE(HttpGet(metrics_port, "/healthz").find("503"),
            std::string::npos);
  server.Wait();
  holder.join();
  if (collector.joinable()) collector.join();
  const double drain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_start)
          .count();
  // The listener closed with the drain.
  EXPECT_EQ(HttpGet(metrics_port, "/healthz"), "");

  if (profiler_usable) {
    EXPECT_NE(profile.find("200 OK"), std::string::npos)
        << "aborted collection still returns the partial profile";
    EXPECT_LT(drain_seconds, 10.0)
        << "a 30s profile window must not pin the drain";
  }
}

// A profile window holds its HTTP connection, not loop 0: with one
// event loop serving frames and HTTP alike, queries keep completing
// while a 2 s collection is open, each far faster than the window.
TEST_F(ServeE2eTest, FramesFlowDuringProfile) {
#ifndef CQABENCH_NO_OBS
  if (!obs::Profiler::kAvailable) {
    GTEST_SKIP() << "sanitizer build: the profile endpoint answers 501";
  }
#else
  GTEST_SKIP() << "profiler compiled out (CQABENCH_NO_OBS)";
#endif
  ServerOptions options;
  options.workers = 1;
  options.metrics_port = 0;
  CqadServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Response response;
  ASSERT_TRUE(client.Call(MakeQueryRequest("KLM", 1), &response, &error))
      << error;  // Warm the synopsis cache before the window opens.

  const auto window_start = std::chrono::steady_clock::now();
  std::string profile;
  std::thread collector([&profile, &server] {
    profile = HttpGet(server.metrics_port(), "/debug/pprof/profile?seconds=2");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  int completed = 0;
  double slowest = 0.0;
  while (std::chrono::steady_clock::now() - window_start <
         std::chrono::milliseconds(1500)) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Call(MakeQueryRequest(kSchemes[completed % 4], 2),
                            &response, &error))
        << error;
    ASSERT_TRUE(response.ok()) << response.error;
    slowest = std::max(
        slowest, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    ++completed;
  }
  collector.join();
  EXPECT_NE(profile.find("200 OK"), std::string::npos) << profile;
  EXPECT_GE(completed, 5);
  EXPECT_LT(slowest, 0.5) << "a query waited on the profile window";
  server.RequestDrain();
  server.Wait();
}

// The tentpole round trip: a client-supplied trace id flows through
// admission and the engine into (a) the response's phase breakdown,
// (b) the access log line, and (c) the server's span tree — the same id
// everywhere, so client and server observations join without guesswork.
TEST_F(ServeE2eTest, TraceContextRoundTripsIntoTimingLogAndSpans) {
  const std::filesystem::path log_path =
      *dir_ / "trace_roundtrip_access.jsonl";
  AccessLogOptions log_options;
  log_options.path = log_path.string();
  AccessLog access_log(log_options);
  std::string error;
  ASSERT_TRUE(access_log.Open(&error)) << error;

  ServerOptions options;
  options.access_log = &access_log;
  CqadServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;
#ifndef CQABENCH_NO_OBS
  obs::TraceBuffer::Instance().Clear();
#endif

  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request request = MakeQueryRequest("KLM", 6);
  request.id = "rq-trace-1";
  request.trace_id = "e2e-trace-1";
  Response response;
  ASSERT_TRUE(client.Call(request, &response, &error)) << error;
  ASSERT_TRUE(response.ok()) << response.error;

  // (a) The response carries the full phase breakdown, and the phases
  // are disjoint sub-intervals of the handler total (1ms slack for the
  // separate stopwatch reads).
  ASSERT_TRUE(response.timing.recorded);
  EXPECT_GT(response.timing.total_micros, 0u);
  EXPECT_GT(response.timing.sample_micros, 0u);
  EXPECT_GT(response.timing.preprocess_micros, 0u);  // Cache-miss build.
  EXPECT_LE(response.timing.PhaseSumMicros(),
            response.timing.total_micros + 1000);

  server.RequestDrain();
  server.Wait();

  // (b) Exactly one access-log line, carrying the same trace id and the
  // same phase fields the response reported.
  EXPECT_EQ(access_log.lines(), 1u);
  std::ifstream in(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(line, &parsed, &error)) << error << line;
  EXPECT_EQ(parsed.GetString("trace_id", ""), "e2e-trace-1");
  EXPECT_EQ(parsed.GetString("id", ""), "rq-trace-1");
  EXPECT_EQ(parsed.GetString("op", ""), "query");
  EXPECT_EQ(parsed.GetNumber("code", -1), 0.0);
  EXPECT_EQ(parsed.GetString("cache", ""), "miss");
  EXPECT_EQ(parsed.GetNumber("sample_micros", 0),
            static_cast<double>(response.timing.sample_micros));

#ifndef CQABENCH_NO_OBS
  // (c) The span tree: one serve.request root stamped with the client's
  // trace id, with the per-phase child spans linked under it.
  std::vector<obs::SpanRecord> spans =
      obs::TraceBuffer::Instance().Snapshot();
  uint64_t root_id = 0;
  std::map<std::string, const obs::SpanRecord*> traced;
  for (const obs::SpanRecord& span : spans) {
    if (span.trace_id != "e2e-trace-1") continue;
    traced[span.name] = &span;
    if (std::string(span.name) == "serve.request") root_id = span.id;
  }
  ASSERT_NE(root_id, 0u) << "no serve.request span with the client id";
  for (const char* name :
       {"serve.queue_wait", "serve.cache", "serve.preprocess",
        "serve.sample", "serve.encode"}) {
    ASSERT_TRUE(traced.count(name)) << name;
  }
  EXPECT_EQ(traced["serve.queue_wait"]->parent_id, root_id);
  EXPECT_EQ(traced["serve.cache"]->parent_id, root_id);
  EXPECT_EQ(traced["serve.sample"]->parent_id, root_id);
  EXPECT_EQ(traced["serve.encode"]->parent_id, root_id);
  // The synopsis build is a child of the cache lookup that ran it.
  EXPECT_EQ(traced["serve.preprocess"]->parent_id,
            traced["serve.cache"]->id);
  EXPECT_EQ(traced["serve.request"]->parent_id, 0u);
#endif
}

// Requests without trace context still log (with no trace_id field) and
// still report timing — tracing is strictly opt-in on the wire.
TEST_F(ServeE2eTest, UntracedRequestsStillLogAndTime) {
  const std::filesystem::path log_path = *dir_ / "untraced_access.jsonl";
  AccessLogOptions log_options;
  log_options.path = log_path.string();
  AccessLog access_log(log_options);
  std::string error;
  ASSERT_TRUE(access_log.Open(&error)) << error;

  ServerOptions options;
  options.access_log = &access_log;
  CqadServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;

  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request ping;
  ping.op = "ping";
  Response response;
  ASSERT_TRUE(client.Call(ping, &response, &error)) << error;
  ASSERT_TRUE(client.Call(MakeQueryRequest("Natural", 8), &response, &error))
      << error;
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_TRUE(response.timing.recorded);

  server.RequestDrain();
  server.Wait();

  EXPECT_EQ(access_log.lines(), 2u);
  std::ifstream in(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(line, &parsed, &error)) << error << line;
  EXPECT_EQ(parsed.GetString("op", ""), "ping");
  EXPECT_EQ(parsed.Find("trace_id"), nullptr);
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_TRUE(JsonValue::Parse(line, &parsed, &error)) << error << line;
  EXPECT_EQ(parsed.GetString("op", ""), "query");
  EXPECT_EQ(parsed.Find("trace_id"), nullptr);
}

// Stats surfaces the serving gauges, the trace ring's drop counter, and
// the access-log sampling state — the in-band view of what /metrics and
// the log export out-of-band.
TEST_F(ServeE2eTest, StatsCarriesGaugesTraceDropsAndAccessLogState) {
  AccessLogOptions log_options;
  log_options.path = (*dir_ / "stats_access.jsonl").string();
  log_options.sample_rate = 0.25;
  AccessLog access_log(log_options);
  std::string error;
  ASSERT_TRUE(access_log.Open(&error)) << error;

  ServerOptions options;
  options.access_log = &access_log;
  CqadServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;

  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request stats;
  stats.op = "stats";
  Response response;
  ASSERT_TRUE(client.Call(stats, &response, &error)) << error;
  ASSERT_TRUE(response.ok()) << response.error;

  JsonValue server_json;
  ASSERT_TRUE(JsonValue::Parse(response.server_json, &server_json, &error))
      << error << response.server_json;
  // The stats connection itself is open right now.
  EXPECT_GE(server_json.GetNumber("connections_open", -1), 1.0);
  EXPECT_GE(server_json.GetNumber("admission_inflight", -1), 0.0);
  EXPECT_GE(server_json.GetNumber("admission_queued", -1), 0.0);
  EXPECT_GE(server_json.GetNumber("trace_dropped_spans", -1), 0.0);
  const JsonValue* log_state = server_json.Find("access_log");
  ASSERT_NE(log_state, nullptr);
  ASSERT_TRUE(log_state->is_object());
  EXPECT_EQ(log_state->GetBool("enabled", false), true);
  EXPECT_EQ(log_state->GetNumber("sample_rate", 0), 0.25);

  server.RequestDrain();
  server.Wait();
}

TEST_F(ServeE2eTest, DeadlineIsEnforced) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request request = MakeQueryRequest("KLM", 5);
  request.deadline_s = 1e-4;  // Far below preprocess + scheme cost.
  Response response;
  ASSERT_TRUE(client.Call(request, &response, &error)) << error;
  // Either the preprocess step hit the wall (408) or the scheme phase
  // returned a partial, timed-out result; both honor the budget.
  if (response.ok()) {
    EXPECT_TRUE(response.timed_out);
  } else {
    EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  }

  server.RequestDrain();
  server.Wait();
}

// The reactor accepts on an epoll-driven listener: a new connection is
// serviceable the moment the kernel signals it, not on the next tick of
// a 200ms acceptor poll. Budget is 10ms for connect + ping round trip
// on loopback under no load; best-of-three to keep a scheduler hiccup
// on a loaded CI box from failing the run.
TEST_F(ServeE2eTest, AcceptUnderNoLoadIsImmediate) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  double best_seconds = 1e9;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    CqaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    Request ping;
    ping.op = "ping";
    ping.id = "accept-" + std::to_string(attempt);
    Response response;
    ASSERT_TRUE(client.Call(ping, &response, &error)) << error;
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_TRUE(response.pong);
    best_seconds = std::min(
        best_seconds,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  EXPECT_LT(best_seconds, 0.010)
      << "accept+ping took " << best_seconds * 1e3
      << " ms — an acceptor poll tick is back in the path";

  server.RequestDrain();
  server.Wait();
}

// Pipelining on one connection: many requests in flight, client-chosen
// ids, responses awaited in reverse send order. Every answer set must
// still match the single-process ground truth for its scheme/seed.
TEST_F(ServeE2eTest, PipelinedRequestsResolveOutOfOrderById) {
  ServerOptions options;
  options.workers = 4;
  CqadServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  CqaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  constexpr int kInFlight = 12;
  for (int i = 0; i < kInFlight; ++i) {
    Request request = MakeQueryRequest(kSchemes[i % 4], 21 + i % 2);
    request.id = "pipe-" + std::to_string(i);
    ASSERT_TRUE(client.Send(request, &error)) << error;
  }
  EXPECT_EQ(client.pending(), static_cast<size_t>(kInFlight));

  for (int i = kInFlight - 1; i >= 0; --i) {
    Response response;
    ASSERT_TRUE(client.Await("pipe-" + std::to_string(i), &response, &error))
        << error;
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.id, "pipe-" + std::to_string(i));
    const std::map<std::string, double> expected =
        LocalAnswers(kSchemes[i % 4], 21 + i % 2);
    ASSERT_EQ(response.answers.size(), expected.size());
    for (const ResponseAnswer& a : response.answers) {
      auto it = expected.find(a.tuple);
      ASSERT_NE(it, expected.end()) << a.tuple;
      EXPECT_EQ(a.frequency, it->second) << a.tuple;
    }
  }
  EXPECT_EQ(client.pending(), 0u);

  server.RequestDrain();
  server.Wait();
}

// Codec transparency: the same query asked in v1 JSON and v2 binary
// returns bit-for-bit identical answers (same tuples, same frequency
// doubles), both matching the single-process ground truth.
TEST_F(ServeE2eTest, BinaryCodecAnswersMatchJsonBitForBit) {
  CqadServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Response json_response;
  Response binary_response;
  for (auto [codec, response] :
       {std::pair<WireCodec, Response*>{WireCodec::kJson, &json_response},
        {WireCodec::kBinary, &binary_response}}) {
    CqaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    client.set_codec(codec);
    Request request = MakeQueryRequest("KL", 33);
    request.id = "codec-kl";
    ASSERT_TRUE(client.Call(request, response, &error)) << error;
    ASSERT_TRUE(response->ok()) << response->error;
  }

  ASSERT_EQ(json_response.answers.size(), binary_response.answers.size());
  for (size_t i = 0; i < json_response.answers.size(); ++i) {
    EXPECT_EQ(json_response.answers[i].tuple,
              binary_response.answers[i].tuple);
    EXPECT_EQ(json_response.answers[i].frequency,
              binary_response.answers[i].frequency);
  }
  const std::map<std::string, double> expected = LocalAnswers("KL", 33);
  ASSERT_EQ(binary_response.answers.size(), expected.size());
  for (const ResponseAnswer& a : binary_response.answers) {
    auto it = expected.find(a.tuple);
    ASSERT_NE(it, expected.end()) << a.tuple;
    EXPECT_EQ(a.frequency, it->second) << a.tuple;
  }

  server.RequestDrain();
  server.Wait();
}

}  // namespace
}  // namespace cqa::serve
