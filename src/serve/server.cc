#include "serve/server.h"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace cqa::serve {

namespace {

// Flipped by the SIGTERM/SIGINT handler; async-signal-safe by
// construction (lock-free atomic store, nothing else in the handler).
std::atomic<bool> g_terminate{false};

void HandleTerminate(int /*signum*/) { g_terminate.store(true); }

// How often loop 0 checks the signal flag and the drain grace loop
// re-checks its count. Connection I/O itself is purely event-driven.
constexpr double kWatchTickSeconds = 0.01;

void SleepTick() {
  struct timespec ts = {0, static_cast<long>(kWatchTickSeconds * 1e9)};
  ::nanosleep(&ts, nullptr);
}

// A non-blocking listening socket bound to host:port (0 = ephemeral);
// stores the bound port. -1 with *error on failure.
int ListenTcp(const std::string& host, int port, int* bound_port,
              std::string* error) {
  if (port < 0 || port > 65535) {
    *error = "port out of range: " + std::to_string(port);
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid listen address: " + host;
    return -1;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
  } else if (::listen(fd, 1024) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
  } else {
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    *bound_port = ntohs(addr.sin_port);
    return fd;
  }
  ::close(fd);
  return -1;
}

// One best-effort non-blocking send for connections rejected before
// they ever reach a loop (accept-time shed). MSG_NOSIGNAL keeps a dead
// peer from raising SIGPIPE.
void BestEffortSend(int fd, const std::string& data) {
  [[maybe_unused]] ssize_t n =
      ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

const char* RejectMessage(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded: return "admission queue full";
    case ErrorCode::kDeadlineExceeded:
      return "deadline expired in admission queue";
    case ErrorCode::kDraining: return "server is draining";
    default: return "request rejected";
  }
}

// The spans bracketing one asynchronous query, shared by its run and
// reject closures. They are opened on a loop thread and finished
// wherever the closure runs, hence CrossThreadSpan rather than the
// same-thread RAII TraceSpan. queue_wait ends when an executor dequeues
// the query; the root ends before the response is handed back.
struct PendingSpans {
  PendingSpans(const std::string& trace_id, uint64_t trace_parent)
      : root("serve.request", trace_parent, trace_id),
        queue("serve.queue_wait", root.id(), trace_id) {}
  obs::CrossThreadSpan root;
  obs::CrossThreadSpan queue;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-connection state machine. Every member is confined to the owning
// loop's thread: events, mailbox deliveries, and drain sweeps all run
// there, so no locking is needed (TSA has nothing to annotate — the
// confinement is the discipline, see docs/architecture.md).
// ---------------------------------------------------------------------------

class CqadServer::Conn : public EpollHandler {
 public:
  Conn(CqadServer* server, EventLoop* loop, size_t loop_index, uint64_t id,
       int fd)
      : server_(server),
        loop_(loop),
        loop_index_(loop_index),
        id_(id),
        fd_(fd),
        decoder_(server->options_.max_frame_bytes) {}

  ~Conn() override {
    if (fd_ >= 0) ::close(fd_);
  }

  uint64_t id() const { return id_; }
  size_t loop_index() const { return loop_index_; }

  void OnEvents(uint32_t events) override {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      ShutdownNow();
      return;
    }
    if ((events & EPOLLOUT) != 0) {
      if (!Flush()) {
        ShutdownNow();
        return;
      }
      if (MaybeCloseAfterFlush()) return;
    }
    if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) OnReadable();
  }

  /// Reads until EAGAIN (edge-triggered contract) and handles every
  /// complete frame. May destroy the connection; callers must not touch
  /// it afterwards.
  void OnReadable() {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.Append(buf, static_cast<size_t>(n));
        if (!DrainFrames()) return;  // Closed (or closing after flush).
        continue;
      }
      if (n == 0) {  // EOF: a half-closed peer still reads its answers.
        DrainSweep();
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      ShutdownNow();
      return;
    }
  }

  /// Queues an encoded frame and flushes as much as the socket takes.
  void QueueWrite(std::string frame) {
    write_q_.push_back(std::move(frame));
    if (!Flush()) {
      ShutdownNow();
      return;
    }
    MaybeCloseAfterFlush();
  }

  /// One pipelined response came back from an executor.
  void CompleteOne(std::string frame) {
    if (outstanding_ > 0) --outstanding_;
    QueueWrite(std::move(frame));
  }

  void NoteSubmitted() { ++outstanding_; }

  /// Drain sweep, also run at EOF: idle connections close now;
  /// connections with pending responses or unflushed bytes close once
  /// those flush.
  void DrainSweep() {
    if (outstanding_ == 0 && write_q_.empty()) {
      ShutdownNow();
    } else {
      close_after_flush_ = true;
    }
  }

  /// Arms close-on-flush for fatal protocol errors (poisoned framing).
  void CloseAfterFlush() {
    close_after_flush_ = true;
    MaybeCloseAfterFlush();
  }

  /// Unregisters, removes from the server registry, and schedules
  /// destruction. Safe to call at most once; the object may be deleted
  /// before this returns (when called off the epoll dispatch path).
  void ShutdownNow() {
    if (closed_) return;
    closed_ = true;
    server_->conns_[loop_index_].erase(id_);
    const int64_t open = server_->open_conns_.fetch_sub(1) - 1;
    server_->connections_gauge_->Set(open);
    loop_->Destroy(fd_, this);  // ~Conn closes fd_.
  }

 private:
  /// Pops decoded frames into the server. False when the connection
  /// closed (fatal framing error or handler said stop).
  bool DrainFrames() {
    for (;;) {
      std::string payload;
      std::string frame_error;
      const FrameDecoder::Status status =
          decoder_.Next(&payload, &frame_error);
      if (status == FrameDecoder::Status::kNeedMore) return true;
      if (status == FrameDecoder::Status::kError) {
        const ErrorCode code =
            frame_error.find("exceeds") != std::string::npos
                ? ErrorCode::kFrameTooLarge
                : ErrorCode::kBadRequest;
        const Response reply = Response::MakeError(code, frame_error);
        write_q_.push_back(EncodeFrame(reply.ToJsonPayload()));
        if (!Flush()) {
          ShutdownNow();
          return false;
        }
        CloseAfterFlush();  // Framing is unrecoverable; close.
        return false;
      }
      if (!server_->HandleFrame(this, payload)) {
        ShutdownNow();
        return false;
      }
      if (closed_) return false;
    }
  }

  /// writev-flushes the queue until empty or EAGAIN. False on a fatal
  /// socket error (caller closes).
  bool Flush() {
    while (!write_q_.empty()) {
      struct iovec iov[64];
      int iovcnt = 0;
      size_t off = write_off_;
      for (const std::string& buf : write_q_) {
        if (iovcnt == 64) break;
        iov[iovcnt].iov_base = const_cast<char*>(buf.data() + off);
        iov[iovcnt].iov_len = buf.size() - off;
        ++iovcnt;
        off = 0;
      }
      struct msghdr msg;
      std::memset(&msg, 0, sizeof(msg));
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<size_t>(iovcnt);
      const ssize_t sent = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      size_t remaining = static_cast<size_t>(sent);
      while (remaining > 0 && !write_q_.empty()) {
        const size_t avail = write_q_.front().size() - write_off_;
        if (remaining >= avail) {
          remaining -= avail;
          write_q_.pop_front();
          write_off_ = 0;
        } else {
          write_off_ += remaining;
          remaining = 0;
        }
      }
    }
    return true;
  }

  /// True when the connection was closed by the pending-close rule.
  bool MaybeCloseAfterFlush() {
    if (close_after_flush_ && write_q_.empty() && outstanding_ == 0) {
      ShutdownNow();
      return true;
    }
    return false;
  }

  CqadServer* const server_;
  EventLoop* const loop_;
  const size_t loop_index_;
  const uint64_t id_;
  const int fd_;
  FrameDecoder decoder_;
  std::deque<std::string> write_q_;  // Encoded frames awaiting the socket.
  size_t write_off_ = 0;             // Bytes of the front frame already sent.
  size_t outstanding_ = 0;           // Queries submitted, response pending.
  bool close_after_flush_ = false;
  bool closed_ = false;
};

// Accept handler: loop 0 owns both listening sockets.
class CqadServer::Listener : public EpollHandler {
 public:
  Listener(CqadServer* server, void (CqadServer::*accept)())
      : server_(server), accept_(accept) {}
  void OnEvents(uint32_t /*events*/) override { (server_->*accept_)(); }

 private:
  CqadServer* const server_;
  void (CqadServer::*const accept_)();
};

CqadServer::CqadServer(const ServerOptions& options)
    : options_(options),
      executors_(options.max_inflight == 0 ? options.workers
                                           : options.max_inflight),
      engine_(options.engine),
      admission_(executors_, options.max_queue),
      connections_gauge_(
          obs::Registry::Instance().GetGauge("serve.connections_open")) {}

CqadServer::~CqadServer() {
  if (started_) {
    RequestDrain();
    Wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
}

void CqadServer::InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleTerminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A client closing mid-response must not kill the process; every send
  // already uses MSG_NOSIGNAL and handles the error path.
  ::signal(SIGPIPE, SIG_IGN);
}

bool CqadServer::Start(std::string* error) {
  if (options_.workers == 0) {
    *error = "workers must be at least 1";
    return false;
  }
  // A failed Start leaves the fds to the destructor.
  listen_fd_ = ListenTcp(options_.host, options_.port, &port_, error);
  if (listen_fd_ < 0) return false;
  if (options_.metrics_port >= 0) {
    http_fd_ = ListenTcp(options_.host, options_.metrics_port,
                         &metrics_port_, error);
    if (http_fd_ < 0) {
      *error = "metrics " + *error;
      return false;
    }
  }

  conns_.resize(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    auto loop = std::make_unique<EventLoop>("loop-" + std::to_string(i));
    if (!loop->ok()) {
      *error = "epoll setup failed for event loop " + std::to_string(i);
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  listener_ = std::make_unique<Listener>(this, &CqadServer::AcceptReady);
  http_listener_ = std::make_unique<Listener>(this, &CqadServer::AcceptHttp);
  if (!loops_[0]->Add(listen_fd_, EPOLLIN | EPOLLET, listener_.get()) ||
      (http_fd_ >= 0 &&
       !loops_[0]->Add(http_fd_, EPOLLIN | EPOLLET, http_listener_.get()))) {
    *error = std::string("epoll_ctl(listen): ") + std::strerror(errno);
    return false;
  }
  WatchSignals();

  for (auto& loop : loops_) {
    EventLoop* raw = loop.get();
    loop_threads_.emplace_back([raw] { raw->Run(); });
  }
  // Executor loops run as ONE fork/join job on the shared pool: this
  // host thread parks until every executor exits at drain.
  executor_host_ = std::thread([this] {
    ThreadPool& pool = ThreadPool::Shared();
    pool.EnsureWorkers(executors_);
    pool.Run(executors_, [this](size_t) { admission_.RunExecutor(); });
  });
  drainer_ = std::thread([this] { DrainSequence(); });
  started_ = true;
  return true;
}

void CqadServer::WatchSignals() {
  if (g_terminate.load()) RequestDrain();
  if (draining_.load()) return;
  loops_[0]->RunAfter(kWatchTickSeconds, [this] { WatchSignals(); });
}

void CqadServer::RequestDrain() {
  if (draining_.exchange(true)) return;
  {
    cqa::MutexLock lock(drain_mu_);
    drain_requested_ = true;
  }
  drain_cv_.NotifyAll();
}

void CqadServer::Wait() {
  if (!started_) return;
  if (drainer_.joinable()) drainer_.join();
  for (std::thread& t : loop_threads_) {
    if (t.joinable()) t.join();
  }
  started_ = false;
}

void CqadServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listen socket was shut down for drain.
    }
    ++connections_total_;
    CQA_OBS_COUNT("serve.connections");
    if (draining_.load()) {
      const Response reply = Response::MakeError(ErrorCode::kDraining,
                                                 "server is draining");
      BestEffortSend(fd, EncodeFrame(reply.ToJsonPayload()));
      ::close(fd);
      continue;
    }
    if (open_conns_.load() >=
        static_cast<int64_t>(options_.max_pending_connections)) {
      CQA_OBS_COUNT("serve.connections_shed");
      Response reply = Response::MakeError(ErrorCode::kOverloaded,
                                           "connection backlog full");
      reply.retry_after_s = admission_.RetryAfterSeconds();
      BestEffortSend(fd, EncodeFrame(reply.ToJsonPayload()));
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_gauge_->Set(open_conns_.fetch_add(1) + 1);
    AdoptConnection(next_loop_++ % loops_.size(), fd);
  }
}

void CqadServer::AdoptConnection(size_t loop_index, int fd) {
  EventLoop* loop = loops_[loop_index].get();
  const uint64_t conn_id = next_conn_id_.fetch_add(1);
  loop->Post([this, loop, loop_index, fd, conn_id] {
    Conn* conn = new Conn(this, loop, loop_index, conn_id, fd);
    if (!loop->Add(fd, EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP, conn)) {
      connections_gauge_->Set(open_conns_.fetch_sub(1) - 1);
      delete conn;  // ~Conn closes fd.
      return;
    }
    conns_[loop_index].emplace(conn_id, conn);
    // Bytes that landed before registration produce no further edge;
    // read once now (a spurious extra EAGAIN read is harmless).
    conn->OnReadable();
  });
}

bool CqadServer::HandleFrame(Conn* conn, const std::string& payload) {
  const Stopwatch request_watch;
  ++requests_total_;
  CQA_OBS_COUNT("serve.requests");

  Request request;
  WireCodec codec = WireCodec::kJson;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  const bool parsed =
      Request::FromPayload(payload, &request, &codec, &code, &error);
  if (!parsed) {
    Response response = Response::MakeError(code, error);
    conn->QueueWrite(
        FinishRequest(request, false, &response, request_watch, codec));
    return true;  // Bad requests keep the connection open.
  }
  if (request.op == "ping" || request.op == "stats") {
    Response response;
    response.id = request.id;
    {
      // The per-request root span; see SubmitQuery for the query path.
      obs::TraceSpan root_span("serve.request", request.trace_parent,
                               request.trace_id);
      if (request.op == "ping") {
        response.pong = true;
      } else {
        response.metrics_json = obs::Registry::Instance().ToJson();
        response.server_json = StatsJson();
      }
    }
    conn->QueueWrite(
        FinishRequest(request, true, &response, request_watch, codec));
    return true;
  }
  SubmitQuery(conn, std::move(request), codec, request_watch);
  return true;
}

void CqadServer::SubmitQuery(Conn* conn, Request request, WireCodec codec,
                             const Stopwatch& watch) {
  if (draining_.load()) {
    Response response = Response::MakeError(
        ErrorCode::kDraining, "server is draining", request.id);
    conn->QueueWrite(FinishRequest(request, true, &response, watch, codec));
    return;
  }
  const size_t loop_index = conn->loop_index();
  const uint64_t conn_id = conn->id();
  // The deadline starts here, before the admission queue, so time
  // spent queued counts against the request's budget.
  const Deadline deadline = engine_.MakeDeadline(request);
  // The root span hangs the whole server-side tree under the client's
  // trace context; queue_wait ends when an executor dequeues the job.
  auto spans = std::make_shared<PendingSpans>(request.trace_id,
                                              request.trace_parent);
  const uint64_t root_id = spans->root.id();
  auto req = std::make_shared<Request>(std::move(request));
  const Stopwatch queue_watch;
  conn->NoteSubmitted();

  QueryJob job;
  job.deadline = deadline;
  job.run = [this, req, codec, watch, queue_watch, spans, root_id,
             loop_index, conn_id, deadline] {
    const uint64_t queue_wait_micros =
        static_cast<uint64_t>(queue_watch.ElapsedSeconds() * 1e6);
    spans->queue.Finish();
    Response response = engine_.ExecuteQuery(*req, deadline, root_id);
    if (response.timing.recorded) {
      response.timing.queue_wait_micros = queue_wait_micros;
    }
    spans->root.Finish();  // Recorded before the response is delivered.
    DeliverFrame(loop_index, conn_id,
                 FinishRequest(*req, true, &response, watch, codec));
  };
  job.reject = [this, req, codec, watch, spans, loop_index,
                conn_id](ErrorCode code) {
    spans->queue.Finish();
    Response response =
        Response::MakeError(code, RejectMessage(code), req->id);
    if (code == ErrorCode::kOverloaded) {
      response.retry_after_s = admission_.RetryAfterSeconds();
    }
    spans->root.Finish();
    DeliverFrame(loop_index, conn_id,
                 FinishRequest(*req, true, &response, watch, codec));
  };
  admission_.Submit(std::move(job));
}

std::string CqadServer::FinishRequest(const Request& request, bool parsed,
                                      Response* response,
                                      const Stopwatch& watch,
                                      WireCodec codec) {
  if (!response->ok()) CQA_OBS_COUNT("serve.request_errors");
  // Total handling time ends here, before frame serialization, so the
  // response's own phase breakdown can sum close to it (the residual is
  // dispatch glue, not a hidden phase).
  const uint64_t total_micros =
      static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6);
  if (response->timing.recorded) {
    response->timing.total_micros = total_micros;
    CQA_OBS_OBSERVE("serve.phase_queue_wait_micros",
                    response->timing.queue_wait_micros);
    CQA_OBS_OBSERVE("serve.phase_cache_micros",
                    response->timing.cache_micros);
    CQA_OBS_OBSERVE("serve.phase_preprocess_micros",
                    response->timing.preprocess_micros);
    CQA_OBS_OBSERVE("serve.phase_sample_micros",
                    response->timing.sample_micros);
    CQA_OBS_OBSERVE("serve.phase_encode_micros",
                    response->timing.encode_micros);
  }
  CQA_OBS_OBSERVE("serve.request_micros", total_micros);
  if (options_.access_log != nullptr) {
    AccessLogEntry entry;
    entry.op = parsed ? request.op : "invalid";
    entry.trace_id = request.trace_id;
    entry.request_id = request.id;
    entry.scheme = request.scheme;
    entry.cache_hit = response->cache_hit;
    entry.code = response->code;
    entry.timed_out = response->timed_out;
    entry.timing = response->timing;
    entry.timing.total_micros = total_micros;  // Set even when !recorded.
    entry.total_samples = response->total_samples;
    options_.access_log->Append(entry);
  }
  response->version = codec == WireCodec::kBinary ? kProtocolVersionBinary
                                                  : kProtocolVersion;
  return EncodeFrame(response->ToPayload(codec));
}

void CqadServer::DeliverFrame(size_t loop_index, uint64_t conn_id,
                              std::string frame) {
  loops_[loop_index]->Post(
      [this, loop_index, conn_id, frame = std::move(frame)]() mutable {
        auto& registry = conns_[loop_index];
        const auto it = registry.find(conn_id);
        if (it == registry.end()) return;  // Connection closed; drop.
        it->second->CompleteOne(std::move(frame));
      });
}

void CqadServer::DrainSequence() {
  {
    cqa::MutexLock lock(drain_mu_);
    while (!drain_requested_) drain_cv_.Wait(drain_mu_);
  }
  // Drain step 1: stop accepting. shutdown() empties and closes the
  // listen queue at the TCP layer; the fd itself is closed on loop 0 so
  // it cannot race an in-flight accept with a recycled descriptor. A
  // running profile ends now with what it caught (a partial 200); the
  // HTTP listener itself keeps answering until the loops stop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  loops_[0]->Post([this] {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);  // epoll forgets closed fds automatically.
      listen_fd_ = -1;
    }
    FinishProfile(profile_conn_);
  });
  // Drain step 2: flush queued work with kDraining, finish in-flight
  // executions, and deliver every pending response.
  admission_.Drain();
  if (executor_host_.joinable()) executor_host_.join();
  // All completions are now queued in loop mailboxes; the sweep posted
  // behind them closes idle connections and marks the rest
  // close-on-flush (mailboxes are FIFO per loop).
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->Post([this, i] {
      std::vector<Conn*> conns;
      conns.reserve(conns_[i].size());
      for (const auto& [id, conn] : conns_[i]) conns.push_back(conn);
      for (Conn* conn : conns) conn->DrainSweep();
    });
  }
  // Drain step 3: give pending flushes drain_timeout_s, then force.
  // HTTP connections close with the loops, inside the same bound.
  ForceCloseStragglers();
  loops_[0]->Post([this] { CloseHttp(); });
  for (auto& loop : loops_) loop->Stop();
}

void CqadServer::ForceCloseStragglers() {
  const Deadline grace(options_.drain_timeout_s);
  while (!grace.Expired()) {
    if (open_conns_.load() == 0) return;
    SleepTick();
  }
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->Post([this, i] {
      std::vector<Conn*> conns;
      conns.reserve(conns_[i].size());
      for (const auto& [id, conn] : conns_[i]) conns.push_back(conn);
      for (Conn* conn : conns) {
        CQA_OBS_COUNT("serve.connections_force_closed");
        conn->ShutdownNow();
      }
    });
  }
  // Give the force-close posts a moment to run before loops stop.
  while (open_conns_.load() > 0) SleepTick();
}

std::string CqadServer::StatsJson() const {
  const SynopsisCache& cache = engine_.synopsis_cache();
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("uptime_seconds", JsonValue::MakeNumber(uptime_.ElapsedSeconds()));
  obj.Set("draining", JsonValue::MakeBool(draining_.load()));
  obj.Set("workers",
          JsonValue::MakeNumber(static_cast<double>(options_.workers)));
  // The instantaneous server-state fields read the same process-wide
  // gauges /metrics exports, so the two views can never disagree.
  obj.Set("connections_open",
          JsonValue::MakeNumber(static_cast<double>(
              connections_gauge_->value())));
  obj.Set("connections_total",
          JsonValue::MakeNumber(
              static_cast<double>(connections_total_.load())));
  obj.Set("requests_total",
          JsonValue::MakeNumber(static_cast<double>(requests_total_.load())));
  obj.Set("admission_inflight",
          JsonValue::MakeNumber(static_cast<double>(
              obs::Registry::Instance().GaugeValue(
                  "serve.admission_inflight"))));
  obj.Set("admission_queued",
          JsonValue::MakeNumber(static_cast<double>(
              obs::Registry::Instance().GaugeValue(
                  "serve.admission_queued"))));
  obj.Set("admission_shed",
          JsonValue::MakeNumber(
              static_cast<double>(admission_.shed_total())));
  obj.Set("trace_dropped_spans",
          JsonValue::MakeNumber(static_cast<double>(
              obs::TraceBuffer::Instance().dropped())));
  {
    JsonValue access = JsonValue::MakeObject();
    const AccessLog* log = options_.access_log;
    access.Set("enabled", JsonValue::MakeBool(log != nullptr));
    access.Set("sample_rate",
               JsonValue::MakeNumber(log != nullptr ? log->sample_rate()
                                                    : 0.0));
    access.Set("lines",
               JsonValue::MakeNumber(
                   log != nullptr ? static_cast<double>(log->lines()) : 0.0));
    access.Set("sampled_out",
               JsonValue::MakeNumber(
                   log != nullptr ? static_cast<double>(log->sampled_out())
                                  : 0.0));
    obj.Set("access_log", std::move(access));
  }
  obj.Set("cache_entries",
          JsonValue::MakeNumber(static_cast<double>(cache.entries())));
  obj.Set("cache_hits",
          JsonValue::MakeNumber(static_cast<double>(cache.hits())));
  obj.Set("cache_misses",
          JsonValue::MakeNumber(static_cast<double>(cache.misses())));
  obj.Set("cache_evictions",
          JsonValue::MakeNumber(static_cast<double>(cache.evictions())));
  return obj.Serialize();
}

}  // namespace cqa::serve
