#include "serve/metrics_http.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/resource.h"
#include "serve/server.h"
#ifndef CQABENCH_NO_OBS
#include "obs/profiler.h"
#endif

namespace cqa::serve {

namespace {

// A request head is routed on what has arrived once it reaches this
// size, without waiting for its blank line.
constexpr size_t kMaxHttpHeadBytes = 8 * 1024;

// Ceiling for /debug/pprof/profile?seconds=N.
constexpr double kMaxProfileSeconds = 60.0;

std::string HttpResponse(int status, const std::string& reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string TextResponse(int status, const std::string& reason,
                         const std::string& body) {
  return HttpResponse(status, reason, "text/plain; charset=utf-8", body);
}

/// "seconds=2&hz=99" -> {{"seconds","2"},{"hz","99"}}. No %-decoding:
/// the recognized keys and values are plain numerics.
std::map<std::string, std::string> ParseQuery(const std::string& query) {
  std::map<std::string, std::string> params;
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      params[pair.substr(0, eq)] = pair.substr(eq + 1);
    } else if (!pair.empty()) {
      params[pair] = "";
    }
    pos = amp + 1;
  }
  return params;
}

#ifndef CQABENCH_NO_OBS
// Only the profile endpoint reads numeric parameters.
double ParamDouble(const std::map<std::string, std::string>& params,
                   const std::string& key, double fallback) {
  const auto it = params.find(key);
  if (it == params.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str()) return fallback;
  return v;
}
#endif  // CQABENCH_NO_OBS

const char kPprofIndex[] =
    "cqad /debug/pprof endpoints:\n"
    "  /debug/pprof/profile?seconds=N[&hz=H][&fold=1]\n"
    "      CPU profile over N seconds (default 1): gzipped pprof\n"
    "      profile.proto, or collapsed stacks with fold=1.\n"
    "      409 = a collection is already running; 503 = draining;\n"
    "      501 = this build cannot profile.\n"
    "  /debug/pprof/heap     allocator counter snapshot\n"
    "  /debug/pprof/threads  live threads + sampler statistics\n";

}  // namespace

// One HTTP connection: read the request head, send one response, close.
// Confined to loop 0 like every Conn is to its own loop.
class CqadServer::HttpConn : public EpollHandler {
 public:
  HttpConn(CqadServer* server, uint64_t id, int fd)
      : server_(server), id_(id), fd_(fd) {}
  ~HttpConn() override { ::close(fd_); }

  bool routed() const { return routed_; }

  void OnEvents(uint32_t events) override {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      Close();
    } else if ((events & EPOLLOUT) != 0 && !out_.empty()) {
      Flush();
    } else if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 && !routed_) {
      ReadHead();
    }
  }

  /// Queues the whole response and closes once the socket took it.
  void Send(std::string response) {
    out_ = std::move(response);
    Flush();
  }

  /// Unregisters and schedules destruction; at most once.
  void Close() {
    if (closed_) return;
    closed_ = true;
    server_->http_conns_.erase(id_);
    server_->loops_[0]->Destroy(fd_, this);  // ~HttpConn closes fd_.
  }

 private:
  /// Reads until EAGAIN (edge-triggered), then routes the request line
  /// once the head is complete, reaches kMaxHttpHeadBytes, or the peer
  /// half-closes (what arrived is answered).
  void ReadHead() {
    char buf[2048];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) Close();
        return;
      }
      head_.append(buf, static_cast<size_t>(n));
      if (n == 0 || head_.size() >= kMaxHttpHeadBytes ||
          head_.find("\r\n\r\n") != std::string::npos ||
          head_.find("\n\n") != std::string::npos) {
        break;
      }
    }
    routed_ = true;
    const std::string reply =
        server_->RouteHttp(id_, head_.substr(0, head_.find_first_of("\r\n")));
    if (!reply.empty()) Send(reply);
  }

  void Flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) Close();
        return;  // EAGAIN: EPOLLOUT resumes the write.
      }
      sent_ += static_cast<size_t>(n);
    }
    Close();
  }

  CqadServer* const server_;
  const uint64_t id_;
  const int fd_;
  std::string head_;
  std::string out_;
  size_t sent_ = 0;
  bool routed_ = false;
  bool closed_ = false;
};

void CqadServer::AcceptHttp() {
  for (;;) {
    const int fd = ::accept4(http_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener closed.
    }
    const uint64_t id = next_conn_id_.fetch_add(1);
    auto* conn = new HttpConn(this, id, fd);
    // A head that arrived before registration still raises the first
    // edge: epoll reports an fd that is ready when it is added.
    if (!loops_[0]->Add(fd, EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
                        conn)) {
      delete conn;
      continue;
    }
    http_conns_.emplace(id, conn);
    loops_[0]->RunAfter(kHttpHeadTimeoutSeconds, [this, id] {
      const auto it = http_conns_.find(id);
      if (it != http_conns_.end() && !it->second->routed()) {
        it->second->Close();
      }
    });
  }
}

void CqadServer::CloseHttp() {
  if (http_fd_ >= 0) {
    ::close(http_fd_);
    http_fd_ = -1;
  }
  std::vector<HttpConn*> conns;
  conns.reserve(http_conns_.size());
  for (const auto& [id, conn] : http_conns_) conns.push_back(conn);
  for (HttpConn* conn : conns) conn->Close();
}

void CqadServer::FinishProfile(uint64_t conn_id) {
#ifndef CQABENCH_NO_OBS
  if (conn_id == 0 || conn_id != profile_conn_) return;
  profile_conn_ = 0;
  obs::Profiler& profiler = obs::Profiler::Instance();
  profiler.Stop();
  const auto it = http_conns_.find(conn_id);
  if (it == http_conns_.end()) return;  // The peer left; still stopped.
  it->second->Send(profile_fold_
                       ? TextResponse(200, "OK", profiler.FoldedText())
                       : HttpResponse(200, "OK", "application/octet-stream",
                                      profiler.PprofGzipped()));
#else
  (void)conn_id;
#endif  // CQABENCH_NO_OBS
}

std::string CqadServer::RouteHttp(uint64_t conn_id,
                                  const std::string& request_line) {
  // "GET /path HTTP/1.1" — method, one space, target, one space, rest.
  const size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) {
    return TextResponse(400, "Bad Request", "bad request\n");
  }
  const std::string method = request_line.substr(0, sp1);
  const size_t sp2 = request_line.find(' ', sp1 + 1);
  std::string target = sp2 == std::string::npos
                           ? request_line.substr(sp1 + 1)
                           : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::map<std::string, std::string> params;
  const size_t query = target.find('?');
  if (query != std::string::npos) {
    params = ParseQuery(target.substr(query + 1));
    target.resize(query);
  }
  if (method != "GET") {
    return TextResponse(405, "Method Not Allowed", "GET only\n");
  }
  if (target == "/metrics") {
    return HttpResponse(200, "OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        obs::RegistryPrometheusText());
  }
  if (target == "/healthz") {
    if (draining_.load()) {
      return TextResponse(503, "Service Unavailable", "draining\n");
    }
    return TextResponse(200, "OK", "ok\n");
  }
  if (target == "/debug/pprof" || target == "/debug/pprof/") {
    return TextResponse(200, "OK", kPprofIndex);
  }
  if (target == "/debug/pprof/profile") {
#ifdef CQABENCH_NO_OBS
    (void)conn_id;
    return TextResponse(501, "Not Implemented",
                        "profiler compiled out (CQABENCH_NO_OBS build)\n");
#else
    obs::Profiler& profiler = obs::Profiler::Instance();
    if (!obs::Profiler::kAvailable) {
      return TextResponse(501, "Not Implemented",
                          "profiler unavailable in sanitizer builds\n");
    }
    if (draining_.load()) {
      return TextResponse(503, "Service Unavailable", "draining\n");
    }
    if (profiler.running()) {
      return TextResponse(409, "Conflict",
                          "profile collection already in progress\n");
    }
    double seconds = ParamDouble(params, "seconds", 1.0);
    if (!(seconds > 0.0)) seconds = 1.0;
    if (seconds > kMaxProfileSeconds) seconds = kMaxProfileSeconds;
    obs::ProfilerOptions popts;
    const double hz = ParamDouble(params, "hz", popts.hz);
    if (hz >= 1.0 && hz <= 1000.0) popts.hz = static_cast<int>(hz);
    std::string error;
    if (!profiler.Start(popts, &error)) {
      return TextResponse(500, "Internal Server Error", error + "\n");
    }
    // The window ends on this timer, or earlier at drain step 1; the
    // reply goes out then (FinishProfile).
    profile_conn_ = conn_id;
    profile_fold_ = params.count("fold") != 0 && params.at("fold") != "0";
    loops_[0]->RunAfter(seconds, [this, conn_id] { FinishProfile(conn_id); });
    return "";
#endif  // CQABENCH_NO_OBS
  }
  if (target == "/debug/pprof/heap") {
    return TextResponse(200, "OK", obs::HeapProfileText());
  }
  if (target == "/debug/pprof/threads") {
    std::string body = obs::ThreadListText();
#ifndef CQABENCH_NO_OBS
    const obs::ProfilerStats stats = obs::Profiler::Instance().stats();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "\nsampler: samples=%llu dropped_ring=%llu "
                  "dropped_untracked=%llu distinct_stacks=%llu\n",
                  static_cast<unsigned long long>(stats.samples),
                  static_cast<unsigned long long>(stats.dropped_ring),
                  static_cast<unsigned long long>(stats.dropped_untracked),
                  static_cast<unsigned long long>(stats.distinct_stacks));
    body += line;
    body += obs::Profiler::Instance().ThreadsText();
#endif
    return TextResponse(200, "OK", body);
  }
  return TextResponse(404, "Not Found", "not found\n");
}

}  // namespace cqa::serve
