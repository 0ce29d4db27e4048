#include "obs/convergence.h"

#include <algorithm>
#include <cmath>

#include "common/json_escape.h"

namespace cqa::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

/// First sample count at which the series was relatively ε-tight
/// (half width <= ε · estimate with a positive estimate); 0 if never.
uint64_t SamplesToEpsilon(const ConvergenceSeries& s) {
  for (const ConvergenceCheckpoint& c : s.checkpoints) {
    if (c.estimate > 0.0 && c.ci_half_width <= s.epsilon * c.estimate) {
      return c.sample_index;
    }
  }
  return 0;
}

/// Trapezoid of the half width over the sample axis, normalized by the
/// sampled range — the mean CI half width along the run.
double NormalizedAuec(const ConvergenceSeries& s) {
  const auto& cps = s.checkpoints;
  if (cps.empty()) return 0.0;
  if (cps.size() == 1) return cps.front().ci_half_width;
  double area = 0.0;
  for (size_t i = 1; i < cps.size(); ++i) {
    double dn = static_cast<double>(cps[i].sample_index) -
                static_cast<double>(cps[i - 1].sample_index);
    area += 0.5 * (cps[i].ci_half_width + cps[i - 1].ci_half_width) * dn;
  }
  double range = static_cast<double>(cps.back().sample_index) -
                 static_cast<double>(cps.front().sample_index);
  return range > 0.0 ? area / range : cps.back().ci_half_width;
}

}  // namespace

ConvergenceSummary Summarize(const ConvergenceSeries& series) {
  ConvergenceSummary sum;
  if (series.checkpoints.empty()) return sum;
  sum.num_series = 1;
  sum.num_checkpoints = series.checkpoints.size();
  sum.samples_to_epsilon = SamplesToEpsilon(series);
  sum.auec = NormalizedAuec(series);
  sum.first_half_width = series.checkpoints.front().ci_half_width;
  sum.final_half_width = series.checkpoints.back().ci_half_width;
  sum.final_estimate = series.checkpoints.back().estimate;
  return sum;
}

ConvergenceSummary Summarize(const std::vector<ConvergenceSeries>& series) {
  ConvergenceSummary sum;
  bool all_converged = true;
  for (const ConvergenceSeries& s : series) {
    ConvergenceSummary one = Summarize(s);
    if (one.num_series == 0) continue;
    sum.num_series += 1;
    sum.num_checkpoints += one.num_checkpoints;
    if (one.samples_to_epsilon == 0) {
      all_converged = false;
    } else {
      sum.samples_to_epsilon =
          std::max(sum.samples_to_epsilon, one.samples_to_epsilon);
    }
    sum.auec += one.auec;
    sum.first_half_width += one.first_half_width;
    sum.final_half_width += one.final_half_width;
    sum.final_estimate += one.final_estimate;
  }
  if (sum.num_series == 0) return sum;
  if (!all_converged) sum.samples_to_epsilon = 0;
  double n = static_cast<double>(sum.num_series);
  sum.auec /= n;
  sum.first_half_width /= n;
  sum.final_half_width /= n;
  sum.final_estimate /= n;
  return sum;
}

std::string ConvergenceSeriesToJson(const ConvergenceSeries& series) {
  std::string out = "{\"phase\":\"";
  AppendJsonEscaped(&out, series.phase);
  out += "\",\"epsilon\":";
  AppendDouble(&out, series.epsilon);
  out += ",\"delta\":";
  AppendDouble(&out, series.delta);
  out += ",\"checkpoints\":[";
  for (size_t i = 0; i < series.checkpoints.size(); ++i) {
    const ConvergenceCheckpoint& c = series.checkpoints[i];
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(c.sample_index);
    out += ',';
    out += std::to_string(c.wall_ns);
    out += ',';
    AppendDouble(&out, c.estimate);
    out += ',';
    AppendDouble(&out, c.ci_half_width);
    out += ',';
    AppendDouble(&out, c.variance);
    out += ']';
  }
  out += "]}";
  return out;
}

ConvergenceRecorder::ConvergenceRecorder(const char* phase, double epsilon,
                                         double delta) {
  series_.phase = phase;
  series_.epsilon = epsilon;
  series_.delta = delta;
  // Guard against out-of-contract δ (the estimators CQA_CHECK it, but
  // the recorder is also constructed directly by tests and tools).
  log3_delta_ = std::log(3.0 / (delta > 0.0 && delta < 1.0 ? delta : 0.25));
}

void ConvergenceRecorder::RecordCheckpoint() {
  double n = static_cast<double>(count_);
  ConvergenceCheckpoint c;
  c.sample_index = count_;
  c.wall_ns = static_cast<uint64_t>(watch_.ElapsedSeconds() * 1e9);
  c.estimate = sum_ / n;
  double variance = sum_sq_ / n - c.estimate * c.estimate;
  c.variance = variance > 0.0 ? variance : 0.0;
  // Empirical Bernstein (Audibert, Munos, Szepesvári 2009): with
  // probability >= 1 - δ the mean of n draws in [0, 1] is within
  //   sqrt(2 V ln(3/δ) / n) + 3 ln(3/δ) / n
  // of the expectation, V the empirical variance.
  c.ci_half_width =
      std::sqrt(2.0 * c.variance * log3_delta_ / n) + 3.0 * log3_delta_ / n;
  series_.checkpoints.push_back(c);
  // Geometric spacing, ratio 1.25 (exact +1 while below 4): ~62
  // checkpoints per million samples.
  uint64_t step = count_ / 4;
  next_checkpoint_ = count_ + (step > 0 ? step : 1);
}

ConvergenceSeries ConvergenceRecorder::TakeSeries() {
#ifndef CQABENCH_NO_OBS
  if (count_ > 0 && (series_.checkpoints.empty() ||
                     series_.checkpoints.back().sample_index != count_)) {
    RecordCheckpoint();
  }
#endif
  ConvergenceSeries out = std::move(series_);
  series_ = ConvergenceSeries{};
  series_.phase = out.phase;
  series_.epsilon = out.epsilon;
  series_.delta = out.delta;
  sum_ = sum_sq_ = 0.0;
  count_ = 0;
  next_checkpoint_ = 1;
  return out;
}

ConvergenceReporter::~ConvergenceReporter() { Close(); }

bool ConvergenceReporter::Open(const std::string& path, std::string* error) {
  MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path.c_str(), "w");
  num_series_ = 0;
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  return true;
}

size_t ConvergenceReporter::num_series() const {
  MutexLock lock(mu_);
  return num_series_;
}

void ConvergenceReporter::Add(const std::string& scenario,
                              const std::string& x_label, double x,
                              const std::string& scheme,
                              const ConvergenceSeries& series) {
  if (series.checkpoints.empty()) return;
  std::string line = "{\"scenario\":\"";
  AppendJsonEscaped(&line, scenario);
  line += "\",\"x_label\":\"";
  AppendJsonEscaped(&line, x_label);
  line += "\",\"x\":";
  AppendDouble(&line, x);
  line += ",\"scheme\":\"";
  AppendJsonEscaped(&line, scheme);
  // Splice the series object's fields into this line's object.
  std::string series_json = ConvergenceSeriesToJson(series);
  line += "\",";
  line.append(series_json, 1, series_json.size() - 1);
  line += '\n';
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  ++num_series_;
}

void ConvergenceReporter::Close() {
  MutexLock lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace cqa::obs
