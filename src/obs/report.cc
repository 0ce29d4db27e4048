#include "obs/report.h"

#include "common/json_escape.h"

namespace cqa::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

std::string RunRecordToJson(const RunRecord& r) {
  std::string out = "{\"scenario\":\"";
  AppendJsonEscaped(&out, r.scenario);
  out += "\",\"x_label\":\"";
  AppendJsonEscaped(&out, r.x_label);
  out += "\",\"x\":";
  AppendDouble(&out, r.x);
  out += ",\"scheme\":\"";
  AppendJsonEscaped(&out, r.scheme);
  out += "\",\"estimate\":";
  AppendDouble(&out, r.estimate);
  out += ",\"num_answers\":" + std::to_string(r.num_answers);
  out += ",\"estimator_samples\":" + std::to_string(r.estimator_samples);
  out += ",\"main_samples\":" + std::to_string(r.main_samples);
  out += ",\"total_samples\":" + std::to_string(r.total_samples);
  out += ",\"estimator_seconds\":";
  AppendDouble(&out, r.estimator_seconds);
  out += ",\"main_seconds\":";
  AppendDouble(&out, r.main_seconds);
  out += ",\"total_seconds\":";
  AppendDouble(&out, r.total_seconds);
  out += ",\"preprocess_seconds\":";
  AppendDouble(&out, r.preprocess_seconds);
  out += ",\"timed_out\":";
  out += r.timed_out ? "true" : "false";
  out += ",\"per_thread_samples\":[";
  for (size_t i = 0; i < r.per_thread_samples.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(r.per_thread_samples[i]);
  }
  out += "]";
  // Convergence summary: flat fields so the record stays one level deep
  // (consumers parse scalars + flat arrays). All zeros when recording
  // was off.
  out += ",\"convergence_series\":" + std::to_string(r.convergence.num_series);
  out += ",\"convergence_checkpoints\":" +
         std::to_string(r.convergence.num_checkpoints);
  out += ",\"samples_to_epsilon\":" +
         std::to_string(r.convergence.samples_to_epsilon);
  out += ",\"auec\":";
  AppendDouble(&out, r.convergence.auec);
  out += ",\"final_half_width\":";
  AppendDouble(&out, r.convergence.final_half_width);
  out += '}';
  return out;
}

RunReporter::~RunReporter() { Close(); }

bool RunReporter::Open(const std::string& path, std::string* error) {
  MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path.c_str(), "w");
  num_records_ = 0;
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  return true;
}

size_t RunReporter::num_records() const {
  MutexLock lock(mu_);
  return num_records_;
}

void RunReporter::Add(const RunRecord& record) {
  std::string line = RunRecordToJson(record);
  line += '\n';
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  ++num_records_;
}

void RunReporter::Close() {
  MutexLock lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace cqa::obs
