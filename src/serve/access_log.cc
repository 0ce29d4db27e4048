#include "serve/access_log.h"

#include <chrono>

#include "common/json_escape.h"

namespace cqa::serve {

AccessLog::AccessLog(const AccessLogOptions& options)
    : options_(options), rng_(options.seed) {}

AccessLog::~AccessLog() {
  MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

bool AccessLog::Open(std::string* error) {
  MutexLock lock(mu_);
  file_ = std::fopen(options_.path.c_str(), "a");
  if (file_ == nullptr) {
    if (error != nullptr) {
      *error = "cannot open access log " + options_.path + " for appending";
    }
    return false;
  }
  return true;
}

std::string AccessLog::FormatLine(const AccessLogEntry& entry,
                                  uint64_t unix_ms, bool slow) {
  std::string out = "{\"unix_ms\":" + std::to_string(unix_ms);
  out += ",\"op\":\"";
  AppendJsonEscaped(&out, entry.op);
  out += '"';
  if (!entry.trace_id.empty()) {
    out += ",\"trace_id\":\"";
    AppendJsonEscaped(&out, entry.trace_id);
    out += '"';
  }
  if (!entry.request_id.empty()) {
    out += ",\"id\":\"";
    AppendJsonEscaped(&out, entry.request_id);
    out += '"';
  }
  out += ",\"code\":" + std::to_string(static_cast<int>(entry.code));
  out += ",\"code_name\":\"" + std::string(ErrorCodeName(entry.code)) + "\"";
  if (entry.op == "query") {
    out += ",\"scheme\":\"";
    AppendJsonEscaped(&out, entry.scheme);
    out += '"';
    if (entry.code == ErrorCode::kOk) {
      out += ",\"cache\":\"" + std::string(entry.cache_hit ? "hit" : "miss") +
             "\"";
      out += ",\"timed_out\":" +
             std::string(entry.timed_out ? "true" : "false");
      out += ",\"total_samples\":" + std::to_string(entry.total_samples);
    }
  }
  const PhaseTiming& t = entry.timing;
  out += ",\"queue_wait_micros\":" + std::to_string(t.queue_wait_micros);
  out += ",\"cache_micros\":" + std::to_string(t.cache_micros);
  out += ",\"preprocess_micros\":" + std::to_string(t.preprocess_micros);
  out += ",\"sample_micros\":" + std::to_string(t.sample_micros);
  out += ",\"encode_micros\":" + std::to_string(t.encode_micros);
  out += ",\"total_micros\":" + std::to_string(t.total_micros);
  if (slow) out += ",\"slow\":true";
  out += "}\n";
  return out;
}

void AccessLog::Append(const AccessLogEntry& entry) {
  const uint64_t unix_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  const bool slow = entry.timing.total_micros >= options_.slow_micros;
  const bool must_log = slow || entry.code != ErrorCode::kOk;
  if (!must_log && options_.sample_rate < 1.0 &&
      !rng_.Bernoulli(options_.sample_rate)) {
    ++sampled_out_;
    return;
  }
  const std::string line = FormatLine(entry, unix_ms, slow);
  std::fwrite(line.data(), 1, line.size(), file_);
  // Flush per line: the log is a debugging artifact read while the
  // server runs (and after a crash); buffered tails would defeat both.
  std::fflush(file_);
  ++lines_;
}

uint64_t AccessLog::lines() const {
  MutexLock lock(mu_);
  return lines_;
}

uint64_t AccessLog::sampled_out() const {
  MutexLock lock(mu_);
  return sampled_out_;
}

}  // namespace cqa::serve
