// serve/metrics_http — the read-only HTTP/1.1 endpoints cqad serves on
// its event loop 0 when ServerOptions::metrics_port is set:
//   GET /metrics         — Prometheus text exposition of the registry
//                          (obs/exposition), stock scrapers work as-is;
//   GET /healthz         — "ok" 200 while serving, "draining" 503 once
//                          drain begins, so load balancers stop routing
//                          before the listener disappears;
//   GET /debug/pprof/    — index of the profiling endpoints below;
//   GET /debug/pprof/profile?seconds=N[&hz=H][&fold=1]
//                        — runs the in-process CPU sampling profiler for
//                          N seconds and returns the gzipped pprof
//                          protobuf (or collapsed stacks with fold=1).
//                          409 while another collection runs, 503 when
//                          drain has begun, 501 when the build cannot
//                          profile (CQABENCH_NO_OBS or sanitizers); a
//                          drain arriving mid-collection cuts it short
//                          and returns the partial profile with 200;
//   GET /debug/pprof/heap    — allocator counter snapshot (mallinfo2);
//   GET /debug/pprof/threads — live thread table + sampler stats.
// It is NOT a general HTTP server: each connection carries one request
// whose head is read up to 8 KiB, anything but GET is answered 405, any
// other path 404, and only the request line is ever parsed (a profile
// window is capped at 60 s). Every connection is a non-blocking
// handler on loop 0 (CqadServer::HttpConn in metrics_http.cc): it reads
// the request head, gets its answer, writes it as the socket accepts it
// and closes. A profile holds its connection for the window without
// holding the loop: a loop-0 timer stops the profiler and sends the
// reply, so scrapes, probes and frames keep flowing meanwhile and no
// request ever gets a thread.
#ifndef CQABENCH_SERVE_METRICS_HTTP_H_
#define CQABENCH_SERVE_METRICS_HTTP_H_

namespace cqa::serve {

/// A connection whose request head has not arrived by then is closed.
inline constexpr double kHttpHeadTimeoutSeconds = 2.0;

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_METRICS_HTTP_H_
