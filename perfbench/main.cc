// perfbench — the repository benchmark binary.
//
//   perfbench fixture --sf=F --seed=N --noise_query=NAME --p=P --out=DIR
//       Generates a TPC-H instance, adds query-aware noise for one of the
//       validation queries and writes it as .tbl files. Never timed.
//   perfbench run --workload=W --data=DIR --seed=N --seconds=S --trace=0|1
//                 [--cqad=PATH] [--trace_out=FILE] [--cqad_flag=F ...]
//                 [--open_rate=R] [--open_requests=N] [--batch=N]
//       Runs one workload and prints one JSON object: correctness, the
//       attempted/failed counts, the metrics and the input fingerprint.
//
// perfbench/run.py builds this binary, caches the fixtures and checks the
// fingerprint against perfbench/fixtures.json; see perfbench/README.md.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "storage/tbl_io.h"

namespace perfbench {

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::vector<double> child_cover(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_cover[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.start) - child_cover[s.id]);
  }
  return self;
}

double Tracer::SpanCostSeconds() {
  constexpr size_t kSpans = 100000;
  Tracer scratch(true);
  const std::string name = "bench.span_cost";
  const std::string item = "item";
  const double start = Now();
  for (size_t i = 0; i < kSpans; ++i) scratch.End(scratch.Begin(name, 0, item));
  return (Now() - start) / kSpans;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"name\":\"%s\",\"item\":\"%s\",\"start\":%.9f,"
                 "\"end\":%.9f}\n",
                 s.id, s.parent, s.name.c_str(), s.item.c_str(), s.start,
                 s.end);
  }
  return std::fclose(f) == 0;
}

double ProcessCpuSeconds(int pid) {
  clockid_t clock;
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

bool ChecksumFile(const std::string& path, uint64_t* sum) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // FNV-1a over 8-byte words, then SplitMix64 to finish: fast enough to
  // fingerprint a few hundred MB outside the timed region.
  uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<char> buf(1 << 20);
  size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, buf.data() + i, 8);
      h = (h ^ w) * 0x100000001b3ULL;
    }
    for (; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  *sum = cqa::SplitMix64(h);
  return ok;
}

}  // namespace perfbench

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

struct Flags {
  std::map<std::string, std::string> values;
  std::vector<std::string> cqad_flags;

  bool Has(const std::string& k) const { return values.count(k) != 0; }
  std::string Get(const std::string& k, const std::string& fallback) const {
    auto it = values.find(k);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& k, double fallback) const {
    auto it = values.find(k);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
  uint64_t GetUint(const std::string& k, uint64_t fallback) const {
    auto it = values.find(k);
    return it == values.end() ? fallback
                              : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench fixture --sf=F --seed=N --noise_query=NAME "
               "--p=P --out=DIR\n"
               "       perfbench run --workload=W --data=DIR --seed=N "
               "--seconds=S --trace=0|1 [--cqad=PATH] [--trace_out=FILE]\n"
               "                     [--cqad_flag=F ...] [--open_rate=R] "
               "[--open_requests=N] [--batch=N]\n");
  return 2;
}

int MakeFixture(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  const std::string noise_query = flags.Get("noise_query", "");
  if (out.empty() || noise_query.empty() || !flags.Has("sf")) return Usage();
  cqa::TpchOptions options;
  options.scale_factor = flags.GetDouble("sf", 0.01);
  options.seed = flags.GetUint("seed", 1);
  cqa::Dataset data = cqa::GenerateTpch(options);
  const cqa::ConjunctiveQuery* query = nullptr;
  const std::vector<cqa::NamedQuery> queries =
      cqa::TpchValidationQueries(*data.schema);
  for (const cqa::NamedQuery& q : queries) {
    if (q.name == noise_query) query = &q.query;
  }
  if (query == nullptr) {
    std::fprintf(stderr, "error: unknown query %s\n", noise_query.c_str());
    return 1;
  }
  cqa::NoiseOptions noise;
  noise.p = flags.GetDouble("p", 0.5);
  cqa::Rng rng(cqa::SplitMix64(options.seed));
  const cqa::NoiseStats stats =
      cqa::AddQueryAwareNoise(data.db.get(), *query, noise, rng);
  std::string error;
  if (!cqa::WriteTblDirectory(*data.db, out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("{\"facts\": %zu, \"facts_added\": %zu}\n", data.db->NumFacts(),
              stats.facts_added);
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void PrintResult(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}, \"fingerprint\": {");
  first = true;
  for (const auto& [name, v] : r.counts) {
    std::printf("%s\"%s\": \"%" PRIu64 "\"", first ? "" : ", ", name.c_str(),
                v);
    first = false;
  }
  std::printf("}, \"errors\": [");
  for (size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", JsonEscape(r.errors[i]).c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

int RunWorkload(const Flags& flags) {
  RunConfig config;
  config.workload = flags.Get("workload", "");
  config.data_dir = flags.Get("data", "");
  config.cqad = flags.Get("cqad", "");
  config.trace_out = flags.Get("trace_out", "");
  config.seed = flags.GetUint("seed", 1);
  config.seconds = flags.GetDouble("seconds", 10);
  config.traced = flags.Get("trace", "0") == "1";
  config.cqad_flags = flags.cqad_flags;
  config.open_rate = flags.GetDouble("open_rate", config.open_rate);
  config.open_requests = flags.GetUint("open_requests", config.open_requests);
  config.batch = flags.GetUint("batch", config.batch);
  if (config.data_dir.empty() || config.seconds <= 0) return Usage();

  perfbench::Tracer tracer(config.traced);
  RunResult result;
  int rc = 0;
  if (config.workload.rfind("prep-", 0) == 0 ||
      config.workload == "sample-sf001") {
    rc = perfbench::RunOffline(config, tracer, &result);
  } else if (config.workload == "serve-mix") {
    if (config.cqad.empty()) return Usage();
    rc = perfbench::RunServeMix(config, tracer, &result);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  if (config.traced) {
    // A layer with no span did no work in this workload.
    for (const char* layer :
         {"bench", "storage", "query", "cqa", "common", "serve"}) {
      result.Set(std::string("layer.") + layer + ".self_s", 0.0, "s");
    }
    for (const auto& [layer, self] : tracer.LayerSelfSeconds()) {
      result.Set("layer." + layer + ".self_s", self, "s");
    }
    if (!config.trace_out.empty() && !tracer.WriteJsonl(config.trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   config.trace_out.c_str());
      return 1;
    }
  }
  PrintResult(result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) return Usage();
    const std::string key(arg + 2, eq);
    if (key == "cqad_flag") {
      flags.cqad_flags.emplace_back(eq + 1);
    } else {
      flags.values[key] = std::string(eq + 1);
    }
  }
  const std::string command = argv[1];
  if (command == "fixture") return MakeFixture(flags);
  if (command == "run") return RunWorkload(flags);
  return Usage();
}
