// cqad — the persistent CQA query service. Loads nothing up front:
// databases and synopses are pulled in and cached on first use, so a
// long-lived daemon amortizes the paper's preprocessing step across
// every request that shares a (database, Σ, Q) key.
//
//   cqad [--host=127.0.0.1] [--port=0] [--workers=4]
//        [--max_inflight=0] [--max_queue=320] [--max_pending=256]
//        [--max_frame_mb=8] [--drain_timeout=10]
//        [--cache_entries=64] [--db_cache_entries=4]
//        [--default_deadline=30] [--obs_report=FILE]
//        [--metrics_port=N] [--obs_access_log=FILE]
//        [--obs_access_sample=P] [--obs_access_slow_ms=N]
//        [--obs_trace=FILE] [--obs_resource_interval=S]
//
// --workers (at least 1) sets the event-loop threads, and the executor
// loops too unless --max_inflight is given. --max_queue is how many
// queries may wait beyond --max_inflight; a query arriving beyond that
// gets 503 with retry_after_s. --max_pending is the open-connection cap:
// accepts beyond it get 503 and are closed.
//
// Numeric flags are strict (common/flags.h): a bad value exits 2 with
// usage before anything binds.
//
// Prints one line "cqad listening on HOST:PORT" once ready (loadgen and
// the e2e tests parse it), then — when --metrics_port was given — a
// second line "cqad metrics on HOST:PORT" for the Prometheus /metrics +
// /healthz + /debug/pprof endpoints, which the server's event loop 0
// serves beside the frame listener. Serves until SIGTERM/SIGINT, which
// triggers the graceful drain documented in DESIGN.md §9; --obs_trace
// exports the span ring as JSONL after the drain completes.
// --obs_resource_interval (default 1s; 0 disables) sets the tick of the
// background resource sampler publishing the proc.* gauges.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "serve/access_log.h"
#include "serve/server.h"

using namespace cqa;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: cqad [--host=ADDR] [--port=N] [--workers=N]\n"
      "            [--max_inflight=N] [--max_queue=N] [--max_pending=N]\n"
      "            [--max_frame_mb=N] [--drain_timeout=S]\n"
      "            [--cache_entries=N] [--db_cache_entries=N]\n"
      "            [--default_deadline=S] [--obs_report=FILE]\n"
      "            [--metrics_port=N] [--obs_access_log=FILE]\n"
      "            [--obs_access_sample=P] [--obs_access_slow_ms=N]\n"
      "            [--obs_trace=FILE] [--obs_resource_interval=S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags args;
  if (!args.Parse(argc, argv, 1)) return Usage();
  if (!args.ValidateKeys({"host", "port", "workers", "max_inflight",
                          "max_queue", "max_pending", "max_frame_mb",
                          "drain_timeout", "cache_entries",
                          "db_cache_entries", "default_deadline",
                          "obs_report", "metrics_port", "obs_access_log",
                          "obs_access_sample", "obs_access_slow_ms",
                          "obs_trace", "obs_resource_interval"})) {
    return Usage();
  }

  serve::ServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = args.GetPort("port", 0);
  options.metrics_port = args.GetPort("metrics_port", -1);
  options.workers = args.GetCount("workers", 4);
  options.max_inflight = args.GetCount("max_inflight", 0);
  options.max_queue = args.GetCount("max_queue", 320);
  options.max_pending_connections = args.GetCount("max_pending", 256);
  options.max_frame_bytes = args.GetCount("max_frame_mb", 8) * 1024 * 1024;
  options.drain_timeout_s = args.GetDouble("drain_timeout", 10.0);
  options.engine.cache_entries = args.GetCount("cache_entries", 64);
  options.engine.db_cache_entries = args.GetCount("db_cache_entries", 4);
  options.engine.default_deadline_s = args.GetDouble("default_deadline", 30);
  const double access_sample = args.GetDouble("obs_access_sample", 1.0);
  const double access_slow_ms = args.GetDouble("obs_access_slow_ms", 500);
  const double resource_interval = args.GetDouble("obs_resource_interval", 1.0);
  if (!args.ok()) return Usage();

  obs::RunReporter reporter;
  std::string report_path = args.Get("obs_report", "");
  if (!report_path.empty()) {
    std::string error;
    if (!reporter.Open(report_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    options.engine.reporter = &reporter;
  }

  serve::AccessLog access_log(serve::AccessLogOptions{
      args.Get("obs_access_log", ""), access_sample,
      static_cast<uint64_t>(access_slow_ms * 1000.0), 7});
  if (!args.Get("obs_access_log", "").empty()) {
    std::string error;
    if (!access_log.Open(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    options.access_log = &access_log;
  }

  if (resource_interval > 0.0) {
    std::string resource_error;
    if (!obs::ResourceSampler::Instance().Start(resource_interval,
                                                &resource_error)) {
      std::fprintf(stderr, "error: %s\n", resource_error.c_str());
      return 1;
    }
  }

  serve::CqadServer::InstallSignalHandlers();
  serve::CqadServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("cqad listening on %s:%d\n", options.host.c_str(),
              server.port());
  if (options.metrics_port >= 0) {
    std::printf("cqad metrics on %s:%d\n", options.host.c_str(),
                server.metrics_port());
  }
  std::fflush(stdout);

  server.Wait();
  obs::ResourceSampler::Instance().Stop();
  std::string trace_path = args.Get("obs_trace", "");
  if (!trace_path.empty()) {
    std::string trace_error;
    if (!obs::TraceBuffer::Instance().ExportJsonl(trace_path,
                                                  &trace_error)) {
      std::fprintf(stderr, "warning: %s\n", trace_error.c_str());
    }
  }
  std::printf("cqad drained cleanly\n");
  return 0;
}
