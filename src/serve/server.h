// serve/server — the TCP transport of cqad, built on the epoll reactor
// in serve/reactor.h. `workers` edge-triggered event loops own all
// connection I/O (loop 0 additionally owns the listening socket and
// hands accepted fds out round-robin); each connection is a small state
// machine with growable read/write buffers that supports pipelining —
// many outstanding requests per connection, responses matched by the
// client-assigned `id` and possibly delivered out of order. Query
// execution never runs on an event loop: parsed requests go through the
// bounded AdmissionQueue to executor loops parked on the process-wide
// ThreadPool. With ServerOptions::metrics_port set, loop 0 also serves
// the read-only HTTP endpoints of serve/metrics_http.h on a second
// listening socket. A SIGTERM/RequestDrain() triggers the graceful drain
// documented in DESIGN.md §9: stop accepting, flush queued work with
// kDraining, finish in-flight requests, force-close stragglers after a
// timeout.
#ifndef CQABENCH_SERVE_SERVER_H_
#define CQABENCH_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "serve/access_log.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/reactor.h"

namespace cqa::serve {

struct ServerOptions {
  /// Listen address. Loopback by default: cqad has no auth layer, so it
  /// must not be exposed beyond the host without an external gate.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Port of the HTTP endpoints (/metrics, /healthz, /debug/pprof/*),
  /// served on loop 0 at `host`; 0 picks an ephemeral port (read it back
  /// via metrics_port()). Negative serves no HTTP.
  int metrics_port = -1;
  /// Event-loop threads, at least 1 (Start refuses 0). Each loop
  /// multiplexes an unbounded share of the open connections; loops never
  /// block on query execution.
  size_t workers = 4;
  /// The open-connection cap: accepts beyond it are answered with
  /// kOverloaded and closed immediately.
  size_t max_pending_connections = 256;
  /// Executor loops bounding concurrent query executions. 0 = `workers`.
  size_t max_inflight = 0;
  /// Queries that may wait beyond `max_inflight`; a query arriving when
  /// max_inflight + max_queue are already running or queued is shed with
  /// kOverloaded.
  size_t max_queue = 320;
  /// Cap on one request frame's payload bytes.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Grace period for in-flight requests during drain before their
  /// connections are force-closed.
  double drain_timeout_s = 10.0;
  /// When non-null, every handled request appends one JSONL line there
  /// (the log behind cqad --obs_access_log=). Not owned; must outlive
  /// the server.
  AccessLog* access_log = nullptr;
  EngineOptions engine;
};

/// The cqad server. Lifecycle: Start() → (clients connect) →
/// RequestDrain() or SIGTERM → Wait() returns once drained.
///
/// Thread model: `workers` event-loop threads (epoll, edge-triggered),
/// `max_inflight` executor loops parked on ThreadPool::Shared() via one
/// host thread, and a drainer thread that runs the three-step shutdown.
/// Loop 0 also owns both listeners, every HTTP connection, and the
/// signal check (a timer). Connection state is confined to its owning
/// loop thread; cross-thread work enters a loop only via Post().
class CqadServer {
 public:
  explicit CqadServer(const ServerOptions& options);
  ~CqadServer();

  CqadServer(const CqadServer&) = delete;
  CqadServer& operator=(const CqadServer&) = delete;

  /// Binds, listens, and starts the reactor + executor threads. False
  /// with *error when workers is 0 or on socket failure.
  bool Start(std::string* error);

  /// The bound port (useful with options.port == 0).
  int port() const { return port_; }

  /// The bound HTTP port; -1 when options.metrics_port is negative.
  int metrics_port() const { return metrics_port_; }

  /// Initiates graceful drain: stop accepting, shed queued work with
  /// kDraining, let in-flight requests finish. Idempotent, non-blocking.
  /// Also triggered by SIGTERM/SIGINT after InstallSignalHandlers().
  void RequestDrain();

  /// Blocks until the server has fully drained and all threads joined.
  void Wait();

  bool draining() const { return draining_.load(); }

  CqaEngine& engine() { return engine_; }

  /// Registers a process-wide SIGTERM/SIGINT handler that flips an
  /// async-signal-safe flag; a 10 ms timer on loop 0 notices it and
  /// begins draining.
  static void InstallSignalHandlers();

  /// The server-state JSON object served by op == "stats" (connections,
  /// admission, cache, uptime); schema in docs/protocol.md.
  std::string StatsJson() const;

 private:
  class Conn;      // Per-connection state machine (loop-thread-only).
  class HttpConn;  // One HTTP request/response (loop 0, metrics_http.cc).
  class Listener;  // Accept handler on loop 0.

  /// Accepts until EAGAIN; runs on loop 0.
  void AcceptReady();
  /// Re-arms itself every 10 ms on loop 0 until the SIGTERM/SIGINT flag
  /// is seen or drain begins.
  void WatchSignals();
  /// Registers an accepted fd with its owning loop (posted there).
  void AdoptConnection(size_t loop_index, int fd);
  /// Handles one decoded frame payload from a connection. Runs on the
  /// connection's loop thread. False → close the connection.
  bool HandleFrame(Conn* conn, const std::string& payload);
  /// Builds the query job (spans, deadline, completion) and submits it.
  /// `watch` started when the frame was decoded; `codec` is echoed in
  /// the response.
  void SubmitQuery(Conn* conn, Request request, WireCodec codec,
                   const Stopwatch& watch);
  /// Post-execution accounting shared by every op: phase metrics,
  /// access log, response encode. Returns the encoded frame.
  std::string FinishRequest(const Request& request, bool parsed,
                            Response* response, const Stopwatch& watch,
                            WireCodec codec);
  /// Posts an encoded response frame back to the owning loop's conn;
  /// dropped silently if the connection closed meanwhile.
  void DeliverFrame(size_t loop_index, uint64_t conn_id, std::string frame);
  /// Runs the three-step drain; body of the drainer thread.
  void DrainSequence();
  /// After drain_timeout_s, force-close connections still open.
  void ForceCloseStragglers();

  // The HTTP endpoints (metrics_http.cc); every one runs on loop 0.
  /// Accepts HTTP connections until EAGAIN.
  void AcceptHttp();
  /// The response to one request line, or "" when it comes later (a
  /// profile, answered by FinishProfile).
  std::string RouteHttp(uint64_t conn_id, const std::string& request_line);
  /// Stops the collection `conn_id` started and sends its profile there,
  /// if that peer is still connected. No-op once that collection ended.
  void FinishProfile(uint64_t conn_id);
  /// Closes the HTTP listener and every HTTP connection.
  void CloseHttp();

  const ServerOptions options_;
  const size_t executors_;  // Effective max_inflight.
  CqaEngine engine_;
  AdmissionQueue admission_;

  int listen_fd_ = -1;
  int port_ = 0;
  int http_fd_ = -1;
  int metrics_port_ = -1;
  bool started_ = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> loop_threads_;
  std::thread executor_host_;  // Parks executor loops on the ThreadPool.
  std::thread drainer_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Listener> http_listener_;

  std::atomic<bool> draining_{false};
  cqa::Mutex drain_mu_;
  cqa::CondVar drain_cv_;  // Wakes the drainer thread.
  bool drain_requested_ CQA_GUARDED_BY(drain_mu_) = false;

  // Live connections, one registry per loop. Each registry is confined
  // to its loop's thread (created, read, and erased there only), so no
  // lock guards it — the confinement is the synchronization.
  std::vector<std::unordered_map<uint64_t, Conn*>> conns_;

  // Live HTTP connections by id, and the connection whose profile is
  // being collected (0 = none). Confined to loop 0 like conns_[0].
  std::unordered_map<uint64_t, HttpConn*> http_conns_;
  uint64_t profile_conn_ = 0;
  bool profile_fold_ = false;

  // Round-robin accept distribution (only touched on loop 0).
  size_t next_loop_ = 0;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int64_t> open_conns_{0};

  // Mirrors open_conns_ as the serve.connections_open gauge (updated
  // unconditionally; serving state is not NO_OBS-gated).
  obs::Gauge* const connections_gauge_;

  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> requests_total_{0};
  Stopwatch uptime_;
};

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_SERVER_H_
