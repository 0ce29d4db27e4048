#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/json_escape.h"

namespace cqa::obs {

namespace {

#ifndef CQABENCH_NO_OBS

using SteadyClock = std::chrono::steady_clock;

/// Trace epoch: all span start offsets are relative to the first time the
/// trace machinery is touched, keeping the JSONL numbers small.
SteadyClock::time_point Epoch() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return epoch;
}

uint32_t ThisThreadId() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

#endif  // !CQABENCH_NO_OBS

void AppendSpanJson(std::string* out, const SpanRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"start_s\":%.9f,\"dur_s\":%.9f,"
                "\"id\":%llu,\"parent_id\":%llu,\"thread\":%u",
                r.name, r.start_seconds, r.duration_seconds,
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.parent_id), r.thread_id);
  *out += buf;
  if (!r.trace_id.empty()) {
    *out += ",\"trace_id\":\"";
    AppendJsonEscaped(out, r.trace_id);
    *out += '"';
  }
  *out += "}\n";
}

}  // namespace

TraceBuffer& TraceBuffer::Instance() {
  static TraceBuffer* instance = new TraceBuffer();
  return *instance;
}

bool TraceBuffer::enabled() const {
  MutexLock lock(mu_);
  return enabled_;
}

void TraceBuffer::set_enabled(bool enabled) {
  MutexLock lock(mu_);
  enabled_ = enabled;
}

void TraceBuffer::set_capacity(size_t capacity) {
  MutexLock lock(mu_);
  capacity_ = capacity > 0 ? capacity : 1;
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

void TraceBuffer::Record(const SpanRecord& record) {
  MutexLock lock(mu_);
  if (!enabled_) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[next_] = record;
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

void TraceBuffer::CopyState(std::vector<SpanRecord>* spans,
                            uint64_t* dropped_spans) const {
  MutexLock lock(mu_);
  spans->clear();
  spans->reserve(ring_.size());
  // next_ is the oldest entry once the ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    spans->push_back(ring_[(next_ + i) % ring_.size()]);
  }
  *dropped_spans = total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::vector<SpanRecord> TraceBuffer::Snapshot() const {
  std::vector<SpanRecord> out;
  uint64_t dropped_spans = 0;
  CopyState(&out, &dropped_spans);
  return out;
}

uint64_t TraceBuffer::dropped() const {
  MutexLock lock(mu_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

void TraceBuffer::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

namespace {

bool WriteWholeFile(const std::string& path, const std::string& out,
                    std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace

void TraceBuffer::AppendJsonl(std::string* out) const {
  std::vector<SpanRecord> spans;
  uint64_t dropped_spans = 0;
  CopyState(&spans, &dropped_spans);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"trace_meta\":true,\"dropped_spans\":%llu,"
                "\"buffered_spans\":%zu}\n",
                static_cast<unsigned long long>(dropped_spans), spans.size());
  *out += buf;
  for (const SpanRecord& r : spans) {
    AppendSpanJson(out, r);
  }
}

bool TraceBuffer::ExportJsonl(const std::string& path,
                              std::string* error) const {
  std::string out;
  AppendJsonl(&out);
  return WriteWholeFile(path, out, error);
}

void TraceBuffer::AppendChromeTrace(std::string* out) const {
  std::vector<SpanRecord> spans;
  uint64_t dropped_spans = 0;
  CopyState(&spans, &dropped_spans);
  *out += "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    if (i > 0) *out += ',';
    // Span names are string literals from our own call sites (a lint
    // rule enforces it), so no escaping is needed.
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"cqa\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent_id\":%llu",
                  r.name, r.start_seconds * 1e6, r.duration_seconds * 1e6,
                  r.thread_id, static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent_id));
    *out += buf;
    if (!r.trace_id.empty()) {
      *out += ",\"trace_id\":\"";
      AppendJsonEscaped(out, r.trace_id);
      *out += '"';
    }
    *out += "}}";
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                "],\"otherData\":{\"dropped_spans\":%llu,"
                "\"buffered_spans\":%zu}}\n",
                static_cast<unsigned long long>(dropped_spans), spans.size());
  *out += tail;
}

bool TraceBuffer::ExportChromeTrace(const std::string& path,
                                    std::string* error) const {
  std::string out;
  AppendChromeTrace(&out);
  return WriteWholeFile(path, out, error);
}

#ifndef CQABENCH_NO_OBS

namespace {
std::atomic<uint64_t> g_next_span_id{1};
}  // namespace

TraceSpan::TraceSpan(const char* name, uint64_t parent_id)
    : name_(name),
      id_(g_next_span_id.fetch_add(1, std::memory_order_relaxed)),
      parent_id_(parent_id),
      region_(name) {
  Epoch();  // Pin the epoch no later than the first span's start.
  start_ = SteadyClock::now();
}

TraceSpan::TraceSpan(const char* name, uint64_t parent_id,
                     const std::string& trace_id)
    : name_(name),
      id_(g_next_span_id.fetch_add(1, std::memory_order_relaxed)),
      parent_id_(parent_id),
      trace_id_(trace_id),
      region_(name) {
  Epoch();
  start_ = SteadyClock::now();
}

double TraceSpan::ElapsedSeconds() const {
  return std::chrono::duration<double>(SteadyClock::now() - start_).count();
}

TraceSpan::~TraceSpan() {
  SpanRecord record;
  record.name = name_;
  record.start_seconds =
      std::chrono::duration<double>(start_ - Epoch()).count();
  record.duration_seconds = ElapsedSeconds();
  record.id = id_;
  record.parent_id = parent_id_;
  record.thread_id = ThisThreadId();
  record.trace_id = trace_id_;
  TraceBuffer::Instance().Record(record);
}

CrossThreadSpan::CrossThreadSpan(const char* name, uint64_t parent_id,
                                 const std::string& trace_id)
    : name_(name),
      id_(g_next_span_id.fetch_add(1, std::memory_order_relaxed)),
      parent_id_(parent_id),
      trace_id_(trace_id) {
  Epoch();
  start_ = SteadyClock::now();
}

CrossThreadSpan::~CrossThreadSpan() { Finish(); }

void CrossThreadSpan::Finish() {
  if (finished_) return;
  finished_ = true;
  SpanRecord record;
  record.name = name_;
  record.start_seconds =
      std::chrono::duration<double>(start_ - Epoch()).count();
  record.duration_seconds =
      std::chrono::duration<double>(SteadyClock::now() - start_).count();
  record.id = id_;
  record.parent_id = parent_id_;
  record.thread_id = ThisThreadId();
  record.trace_id = trace_id_;
  TraceBuffer::Instance().Record(record);
}

#endif  // !CQABENCH_NO_OBS

}  // namespace cqa::obs
