// Helpers shared by the serving tests: a raw-socket HTTP GET for the
// endpoints cqad serves on its loop 0, a small noisy TPC-H directory,
// and a query slow enough to hold a drain open while a test probes it.
#ifndef CQABENCH_TESTS_SERVE_TEST_UTIL_H_
#define CQABENCH_TESTS_SERVE_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "serve/client.h"
#include "storage/tbl_io.h"

namespace cqa::serve::testing {

inline constexpr const char* kNationQuery =
    "Q(NN) :- customer(CK, CN, CA, NK, CP, CB, CS, CC), "
    "nation(NK, NN, RK, NC).";

/// Connects a TCP socket to 127.0.0.1:port; -1 on failure.
inline int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// GET target over one connection; the raw response ("" when the
/// connection is refused). The frame-protocol CqaClient can't speak HTTP.
inline std::string HttpGet(int port, const std::string& target) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// A small noisy TPC-H instance in a temp directory, removed on
/// destruction. Noise aware of kNationQuery gives its answers conflicting
/// blocks, so the schemes have real sampling work to do.
class NoisyTpchDir {
 public:
  explicit NoisyTpchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("cqa_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
    Dataset d = GenerateTpch(TpchOptions{0.0003, 17});
    ConjunctiveQuery q = MustParseCq(*d.schema, kNationQuery);
    NoiseOptions noise;
    noise.p = 0.5;
    Rng rng(99);
    AddQueryAwareNoise(d.db.get(), q, noise, rng);
    std::string error;
    EXPECT_TRUE(WriteTblDirectory(*d.db, path_.string(), &error)) << error;
  }
  ~NoisyTpchDir() { std::filesystem::remove_all(path_); }
  NoisyTpchDir(const NoisyTpchDir&) = delete;
  NoisyTpchDir& operator=(const NoisyTpchDir&) = delete;

  std::string path() const { return path_.string(); }

 private:
  const std::filesystem::path path_;
};

/// Runs, on its own thread and connection, a query whose ε is so small
/// that it samples until its `seconds` deadline, so a drain requested
/// meanwhile stays open until then. Returns once the query is executing;
/// join the thread after the drain.
inline std::thread HoldDrainOpen(int port, const std::string& data_dir,
                                 double seconds) {
  obs::Registry& registry = obs::Registry::Instance();
  const int64_t before = registry.GaugeValue("serve.admission_inflight");
  std::thread holder([port, data_dir, seconds] {
    CqaClient client;
    std::string error;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    Request request;
    request.op = "query";
    request.schema = "tpch";
    request.data = data_dir;
    request.query = kNationQuery;
    request.scheme = "Natural";
    request.epsilon = 1e-4;
    request.deadline_s = seconds;
    Response response;
    EXPECT_TRUE(client.Call(request, &response, &error)) << error;
  });
  const Deadline started(10.0);
  while (registry.GaugeValue("serve.admission_inflight") <= before &&
         !started.Expired()) {
    std::this_thread::yield();
  }
  return holder;
}

}  // namespace cqa::serve::testing

#endif  // CQABENCH_TESTS_SERVE_TEST_UTIL_H_
