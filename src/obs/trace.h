#ifndef CQABENCH_OBS_TRACE_H_
#define CQABENCH_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/profile_region.h"

namespace cqa::obs {

/// One completed span. `name` must point at a string literal (the RAII
/// span takes `const char*` precisely so no allocation happens on the
/// instrumented path). `trace_id` is the wire-propagated request trace
/// context (empty for the hot-path sampler/estimator spans, so the
/// common case still allocates nothing).
struct SpanRecord {
  const char* name = "";
  /// Start offset from the process trace epoch, seconds (monotonic).
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root span.
  uint32_t thread_id = 0;  // Hashed std::thread::id.
  /// Client-chosen request trace id, propagated over the wire by the
  /// serving layer; empty for spans outside a traced request.
  std::string trace_id;
};

/// Process-wide bounded ring buffer of completed spans. Recording takes a
/// mutex — spans mark phases (an OptEstimate run, a Monte Carlo main
/// loop), not per-draw events, so contention is negligible.
class TraceBuffer {
 public:
  static TraceBuffer& Instance();

  bool enabled() const CQA_EXCLUDES(mu_);
  void set_enabled(bool enabled) CQA_EXCLUDES(mu_);

  /// Resizes the ring (discarding buffered spans). Default 4096.
  void set_capacity(size_t capacity) CQA_EXCLUDES(mu_);

  void Record(const SpanRecord& record) CQA_EXCLUDES(mu_);

  /// Buffered spans, oldest first.
  std::vector<SpanRecord> Snapshot() const CQA_EXCLUDES(mu_);

  /// Spans evicted by the ring since the last Clear().
  uint64_t dropped() const CQA_EXCLUDES(mu_);

  void Clear() CQA_EXCLUDES(mu_);

  /// Writes a meta line {"trace_meta":true,"dropped_spans":...,
  /// "buffered_spans":...} followed by one JSON object per buffered span:
  ///   {"name":...,"start_s":...,"dur_s":...,"id":...,"parent_id":...,
  ///    "thread":...}
  /// Spans carrying a request trace context add "trace_id":"...".
  bool ExportJsonl(const std::string& path, std::string* error) const;
  void AppendJsonl(std::string* out) const;

  /// Writes the buffered spans as one Chrome trace_event JSON document
  /// ("X" complete events, timestamps in microseconds) that loads in
  /// Perfetto / chrome://tracing; the ring's dropped-span count rides
  /// along in "otherData".
  bool ExportChromeTrace(const std::string& path, std::string* error) const;
  void AppendChromeTrace(std::string* out) const;

 private:
  TraceBuffer() = default;

  /// One consistent (spans, dropped count) pair under a single lock.
  void CopyState(std::vector<SpanRecord>* spans,
                 uint64_t* dropped_spans) const CQA_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<SpanRecord> ring_ CQA_GUARDED_BY(mu_);
  size_t capacity_ CQA_GUARDED_BY(mu_) = 4096;
  size_t next_ CQA_GUARDED_BY(mu_) = 0;
  uint64_t total_ CQA_GUARDED_BY(mu_) = 0;
  bool enabled_ CQA_GUARDED_BY(mu_) = true;
};

#ifdef CQABENCH_NO_OBS

/// Compiled-out span: construction and destruction are empty inline
/// functions the optimizer erases entirely.
class TraceSpan {
 public:
  explicit TraceSpan(const char* /*name*/, uint64_t /*parent_id*/ = 0) {}
  TraceSpan(const char* /*name*/, uint64_t /*parent_id*/,
            const std::string& /*trace_id*/) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  uint64_t id() const { return 0; }
  double ElapsedSeconds() const { return 0.0; }
};

/// Compiled-out cross-thread span.
class CrossThreadSpan {
 public:
  CrossThreadSpan(const char* /*name*/, uint64_t /*parent_id*/,
                  const std::string& /*trace_id*/) {}
  CrossThreadSpan(const CrossThreadSpan&) = delete;
  CrossThreadSpan& operator=(const CrossThreadSpan&) = delete;

  uint64_t id() const { return 0; }
  void Finish() {}
};

#else  // !CQABENCH_NO_OBS

/// RAII phase marker: records a SpanRecord into the TraceBuffer at
/// destruction. `name` must be a string literal. Pass a parent span's
/// id() to nest (across threads too — the parallel workers hang their
/// per-worker spans off the main-loop span). The three-argument form
/// additionally stamps the span with a request trace id (the serving
/// layer's wire-propagated TraceContext); pay the string copy only on
/// request spans, never on the sampling hot path.
///
/// Every span also pushes its name onto the thread's profile-region
/// stack for its lifetime (obs/profile_region.h), so CPU samples taken
/// while a span is open carry "[span name]" tags — traces, phase
/// metrics, and profiles share one taxonomy with no extra call sites.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, uint64_t parent_id = 0);
  TraceSpan(const char* name, uint64_t parent_id, const std::string& trace_id);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  uint64_t id() const { return id_; }
  double ElapsedSeconds() const;

 private:
  const char* name_;
  uint64_t id_;
  uint64_t parent_id_;
  std::string trace_id_;
  std::chrono::steady_clock::time_point start_;
  ScopedProfileRegion region_;
};

/// A span whose lifetime crosses threads: a request handed from an
/// event loop to an executor starts its span where it is received and
/// ends it where it finishes. TraceSpan is strictly same-thread RAII —
/// its profile-region push/pop mutates *thread-local* state, so
/// destroying one on another thread corrupts that thread's region
/// stack. CrossThreadSpan allocates its id at construction and records
/// at Finish() (idempotent; the destructor calls it as a backstop),
/// never touching the profile-region stack; the recorded thread_id is
/// the finishing thread's. Callers serialize construction, Finish(),
/// and destruction themselves (the serving layer orders them through
/// its admission-queue handoff).
class CrossThreadSpan {
 public:
  CrossThreadSpan(const char* name, uint64_t parent_id,
                  const std::string& trace_id);
  ~CrossThreadSpan();
  CrossThreadSpan(const CrossThreadSpan&) = delete;
  CrossThreadSpan& operator=(const CrossThreadSpan&) = delete;

  uint64_t id() const { return id_; }

  /// Records the span now; later calls (and the destructor) no-op.
  void Finish();

 private:
  const char* name_;
  uint64_t id_;
  uint64_t parent_id_;
  std::string trace_id_;
  std::chrono::steady_clock::time_point start_;
  bool finished_ = false;
};

#endif  // CQABENCH_NO_OBS

}  // namespace cqa::obs

#endif  // CQABENCH_OBS_TRACE_H_
