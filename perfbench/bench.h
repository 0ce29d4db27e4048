// Shared pieces of the perfbench binary: the run configuration, the metric
// sink, the span recorder used by traced runs, and small statistics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Everything one workload run needs; filled from the command-line flags.
struct RunConfig {
  std::string workload;
  std::string data_dir;  // Absolute path of the cached fixture (.tbl files).
  std::string cqad;      // Absolute path of the cqad binary (serve-mix).
  std::string trace_out; // JSONL span file written at exit (traced runs).
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  // serve-mix settings, fixed by perfbench/fixtures.json.
  std::vector<std::string> cqad_flags;
  double open_rate = 100.0;  // Poisson arrival rate of the open loop (1/s).
  size_t open_requests = 2000;
  size_t batch = 400;        // Requests per closed-loop pass.
};

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Result of one workload run, printed as one JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  // Observed input fingerprints, checked by run.py against fixtures.json.
  std::map<std::string, uint64_t> counts;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used so far, all threads (exited ones
/// included). The end-to-end timings use it: on a shared host, wall time
/// also counts the time other tenants hold the cores.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds process `pid` has used so far, all its threads; -1 when
/// its CPU clock cannot be read.
double ProcessCpuSeconds(int pid);

/// Quantile with linear interpolation; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Smallest value; 0 for an empty sample. The end-to-end timings take the
/// fastest of repeats of identical work: interference from the rest of a
/// shared host only ever adds time.
inline double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Records spans around the benchmark's calls into each layer. Disabled
/// (every call a no-op) in untraced runs, so end-to-end timings carry no
/// tracing cost. Spans stay in memory and are written out once at exit.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;  // "<layer>.<call>", e.g. "storage.ReadTblDirectory".
    std::string item;  // The cell or request the span belongs to.
    double start = 0.0;
    double end = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent,
                 const std::string& item) {
    if (!enabled_) return 0;
    spans_.push_back(Span{spans_.size() + 1, parent, name, item, Now(), 0.0});
    return spans_.back().id;
  }
  /// Closes span `id`; returns its duration in seconds (0 when disabled).
  double End(uint64_t id) {
    if (!enabled_ || id == 0) return 0.0;
    Span& s = spans_[id - 1];
    s.end = Now();
    return s.end - s.start;
  }
  /// Adds an already-timed span (used for request spans timed elsewhere).
  void Add(const std::string& name, uint64_t parent, const std::string& item,
           double start, double end) {
    if (!enabled_) return;
    spans_.push_back(Span{spans_.size() + 1, parent, name, item, start, end});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the part its direct children cover.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Measured cost of recording one span (a Begin/End pair), in seconds.
  static double SpanCostSeconds();

  /// Writes one JSON object per span. False on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; the duration is readable after Close().
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, uint64_t parent,
             const std::string& item)
      : tracer_(tracer), id_(tracer.Begin(name, parent, item)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void Close() {
    if (id_ != 0) tracer_.End(id_);
    id_ = 0;
  }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

/// Peak resident set (VmHWM) of process `pid` (0 = self), in MB.
double PeakRssMb(int pid = 0);

/// 64-bit content checksum of a file's bytes; false on I/O failure.
bool ChecksumFile(const std::string& path, uint64_t* sum);

int RunOffline(const RunConfig& config, Tracer& tracer, RunResult* result);
int RunServeMix(const RunConfig& config, Tracer& tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
