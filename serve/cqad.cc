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
// Prints one line "cqad listening on HOST:PORT" once ready (loadgen and
// the e2e tests parse it), then — when --metrics_port was given — a
// second line "cqad metrics on HOST:PORT" for the Prometheus /metrics +
// /healthz + /debug/pprof listener. Serves until SIGTERM/SIGINT, which
// triggers the graceful drain documented in DESIGN.md §9; --obs_trace
// exports the span ring as JSONL after the drain completes.
// --obs_resource_interval (default 1s; 0 disables) sets the tick of the
// background resource sampler publishing the proc.* gauges.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "obs/exposition.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "serve/access_log.h"
#include "serve/metrics_http.h"
#include "serve/server.h"

using namespace cqa;

namespace {

struct Args {
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  bool ValidateKeys(std::initializer_list<const char*> allowed) const {
    bool ok = true;
    for (const auto& [key, value] : flags) {
      bool known = false;
      for (const char* a : allowed) known |= key == a;
      if (!known) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
        ok = false;
      }
    }
    return ok;
  }
};

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
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return Usage();
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) return Usage();
    args.flags[std::string(arg + 2, eq)] = std::string(eq + 1);
  }
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
  options.port = static_cast<int>(args.GetDouble("port", 0));
  options.workers = static_cast<size_t>(args.GetDouble("workers", 4));
  options.max_inflight =
      static_cast<size_t>(args.GetDouble("max_inflight", 0));
  options.max_queue = static_cast<size_t>(args.GetDouble("max_queue", 320));
  options.max_pending_connections =
      static_cast<size_t>(args.GetDouble("max_pending", 256));
  options.max_frame_bytes =
      static_cast<size_t>(args.GetDouble("max_frame_mb", 8)) * 1024 * 1024;
  options.drain_timeout_s = args.GetDouble("drain_timeout", 10.0);
  options.engine.cache_entries =
      static_cast<size_t>(args.GetDouble("cache_entries", 64));
  options.engine.db_cache_entries =
      static_cast<size_t>(args.GetDouble("db_cache_entries", 4));
  options.engine.default_deadline_s = args.GetDouble("default_deadline", 30);

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
      args.Get("obs_access_log", ""),
      args.GetDouble("obs_access_sample", 1.0),
      static_cast<uint64_t>(args.GetDouble("obs_access_slow_ms", 500) *
                            1000.0),
      7});
  if (!args.Get("obs_access_log", "").empty()) {
    std::string error;
    if (!access_log.Open(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    options.access_log = &access_log;
  }

  const double resource_interval = args.GetDouble("obs_resource_interval", 1.0);
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
  std::fflush(stdout);

  serve::MetricsHttpServer metrics_http(serve::MetricsHttpOptions{
      options.host,
      static_cast<int>(args.GetDouble("metrics_port", -1)),
      [] { return obs::RegistryPrometheusText(); },
      [&server] { return !server.draining(); }});
  if (args.flags.count("metrics_port") != 0) {
    if (!metrics_http.Start(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      server.RequestDrain();
      server.Wait();
      return 1;
    }
    std::printf("cqad metrics on %s:%d\n", options.host.c_str(),
                metrics_http.port());
    std::fflush(stdout);
  }

  server.Wait();
  metrics_http.Stop();
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
