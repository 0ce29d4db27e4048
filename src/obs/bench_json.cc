#include "obs/bench_json.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "common/json_escape.h"

namespace cqa::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

void AppendMeanStddev(std::string* out, const MeanVarAccumulator& acc) {
  *out += "{\"mean\":";
  AppendDouble(out, acc.count() > 0 ? acc.mean() : 0.0);
  *out += ",\"stddev\":";
  AppendDouble(out, acc.count() > 1 ? acc.stddev() : 0.0);
  *out += '}';
}

}  // namespace

std::string BenchGitSha() {
  const char* env = std::getenv("CQABENCH_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
#ifdef CQABENCH_GIT_SHA
  return CQABENCH_GIT_SHA;
#else
  return "unknown";
#endif
}

void BenchJsonWriter::SetMetadata(const BenchMetadata& metadata) {
  MutexLock lock(mu_);
  metadata_ = metadata;
}

void BenchJsonWriter::AddRun(const RunRecord& record) {
  MutexLock lock(mu_);
  Cell& cell = cells_[{record.scenario, record.x, record.scheme}];
  cell.x_label = record.x_label;
  cell.wall_seconds.Add(record.total_seconds);
  cell.samples.Add(static_cast<double>(record.total_samples));
  cell.estimate.Add(record.estimate);
  ++cell.runs;
  if (record.timed_out) ++cell.timeouts;
  const ConvergenceSummary& conv = record.convergence;
  if (conv.num_series > 0) {
    ++cell.convergence_runs;
    if (conv.samples_to_epsilon > 0) {
      ++cell.convergence_converged;
      cell.samples_to_epsilon.Add(
          static_cast<double>(conv.samples_to_epsilon));
    }
    cell.auec.Add(conv.auec);
    cell.final_half_width.Add(conv.final_half_width);
  }
}

void BenchJsonWriter::AddSample(const std::string& scenario,
                                const std::string& x_label, double x,
                                const std::string& series, double seconds,
                                double samples, bool timed_out) {
  MutexLock lock(mu_);
  Cell& cell = cells_[{scenario, x, series}];
  cell.x_label = x_label;
  cell.wall_seconds.Add(seconds);
  cell.samples.Add(samples);
  ++cell.runs;
  if (timed_out) ++cell.timeouts;
}

size_t BenchJsonWriter::num_cells() const {
  MutexLock lock(mu_);
  return cells_.size();
}

std::string BenchJsonWriter::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"bench_json_version\":";
  out += std::to_string(kBenchJsonVersion);
  out += ",\"name\":\"";
  AppendJsonEscaped(&out, metadata_.name);
  out += "\",\"git_sha\":\"";
  AppendJsonEscaped(&out, BenchGitSha());
  out += "\",\"build\":\"";
#ifdef CQABENCH_BUILD_TYPE
  AppendJsonEscaped(&out, CQABENCH_BUILD_TYPE);
#else
  AppendJsonEscaped(&out, "unknown");
#endif
  out += '"';
#ifdef CQABENCH_NO_OBS
  out += ",\"no_obs\":true";
#else
  out += ",\"no_obs\":false";
#endif
  out += ",\"unix_time\":" +
         std::to_string(static_cast<long long>(std::time(nullptr)));
  out += ",\"host\":{";
#if defined(__unix__) || defined(__APPLE__)
  struct utsname uts {};
  if (uname(&uts) == 0) {
    out += "\"os\":\"";
    AppendJsonEscaped(&out, uts.sysname);
    out += "\",\"machine\":\"";
    AppendJsonEscaped(&out, uts.machine);
    out += "\",";
  }
#endif
  out += "\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += "},\"config\":{\"seed\":" + std::to_string(metadata_.seed);
  out += ",\"scale_factor\":";
  AppendDouble(&out, metadata_.scale_factor);
  out += ",\"timeout_seconds\":";
  AppendDouble(&out, metadata_.timeout_seconds);
  out += ",\"queries_per_level\":" +
         std::to_string(metadata_.queries_per_level);
  out += ",\"epsilon\":";
  AppendDouble(&out, metadata_.epsilon);
  out += ",\"delta\":";
  AppendDouble(&out, metadata_.delta);
  out += "},\"results\":[";
  bool first = true;
  for (const auto& [key, cell] : cells_) {
    if (!first) out += ',';
    first = false;
    out += "{\"scenario\":\"";
    AppendJsonEscaped(&out, std::get<0>(key));
    out += "\",\"x_label\":\"";
    AppendJsonEscaped(&out, cell.x_label);
    out += "\",\"x\":";
    AppendDouble(&out, std::get<1>(key));
    out += ",\"series\":\"";
    AppendJsonEscaped(&out, std::get<2>(key));
    out += "\",\"runs\":" + std::to_string(cell.runs);
    out += ",\"timeouts\":" + std::to_string(cell.timeouts);
    out += ",\"wall_seconds\":";
    AppendMeanStddev(&out, cell.wall_seconds);
    out += ",\"samples\":";
    AppendMeanStddev(&out, cell.samples);
    out += ",\"estimate\":";
    AppendMeanStddev(&out, cell.estimate);
    out += ",\"convergence\":{\"runs\":" +
           std::to_string(cell.convergence_runs);
    out += ",\"converged\":" + std::to_string(cell.convergence_converged);
    out += ",\"samples_to_epsilon\":";
    AppendMeanStddev(&out, cell.samples_to_epsilon);
    out += ",\"auec\":";
    AppendMeanStddev(&out, cell.auec);
    out += ",\"final_half_width\":";
    AppendMeanStddev(&out, cell.final_half_width);
    out += "}}";
  }
  out += "]}";
  return out;
}

bool BenchJsonWriter::WriteFile(const std::string& path,
                                std::string* error) const {
  std::string json = ToJson();
  json += '\n';
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace cqa::obs
