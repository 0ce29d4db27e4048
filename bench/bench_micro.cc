// Microbenchmarks (google-benchmark) for the design-choice ablations
// DESIGN.md calls out:
//   * per-sample cost of the three samplers as |H| grows — the KL-vs-KLM
//     cost asymmetry (§4.2: KLM always scans all of H);
//   * OptEstimate (DKLR) vs the naive Chernoff-Hoeffding sample bound —
//     why the paper uses the optimal estimator;
//   * synopsis preprocessing throughput;
//   * coverage step cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"

#include "bench/harness.h"
#include "cqa/coverage.h"
#include "obs/trace.h"
#include "cqa/indexed_natural_sampler.h"
#include "cqa/kl_sampler.h"
#include "cqa/klm_sampler.h"
#include "cqa/opt_estimate.h"
#include "cqa/preprocess.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "query/parser.h"

namespace cqa {
namespace {

/// Synopsis with `n` images over `n` blocks of size `b`: image i pins
/// block i plus block (i+1) mod n, a chain with heavy overlap.
Synopsis ChainSynopsis(uint32_t n, uint32_t b) {
  SynopsisBuilder builder;
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddBlock(Synopsis::Block{b, 0, i});
  }
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddImage({{i, 0}, {(i + 1) % n, 0}});
  }
  return builder.Finish();
}

void BM_IndexedNaturalSamplerDraw(benchmark::State& state) {
  Synopsis s = ChainSynopsis(state.range(0), 3);
  IndexedNaturalSampler sampler(&s);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Draw(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedNaturalSamplerDraw)->Arg(8)->Arg(64)->Arg(512);

void BM_KlSamplerDraw(benchmark::State& state) {
  Synopsis s = ChainSynopsis(state.range(0), 3);
  SymbolicSpace space(&s);
  KlSampler sampler(&space);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Draw(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KlSamplerDraw)->Arg(8)->Arg(64)->Arg(512);

void BM_KlmSamplerDraw(benchmark::State& state) {
  Synopsis s = ChainSynopsis(state.range(0), 3);
  SymbolicSpace space(&s);
  KlmSampler sampler(&space);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Draw(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KlmSamplerDraw)->Arg(8)->Arg(64)->Arg(512);

/// Ablation: DKLR's optimal N vs the naive Chernoff-Hoeffding bound
/// N = 3·ln(2/δ)/(ε²·μ̂) that a zero-variance-unaware estimator would use.
/// Reported as counters so the ratio is visible in the output.
void BM_OptEstimateVsHoeffding(benchmark::State& state) {
  // A low-variance instance: every database of db(B) is covered by
  // exactly one image, so SampleKLM is the constant 1 and the optimal
  // estimator needs a tiny N — while the Hoeffding bound, blind to
  // variance, still demands Θ(ln(1/δ)/ε²) samples.
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{4, 0, 0});
  for (uint32_t t = 0; t < 4; ++t) builder.AddImage({{0, t}});
  const Synopsis s = builder.Finish();
  SymbolicSpace space(&s);
  KlmSampler sampler(&space);
  const double epsilon = 0.1, delta = 0.25;
  size_t opt_n = 0;
  double mu = 0;
  for (auto _ : state) {
    Rng rng(4);
    OptEstimateResult r = OptEstimate(sampler, epsilon, delta, rng);
    opt_n = r.num_iterations;
    mu = r.mu_hat;
    benchmark::DoNotOptimize(r);
  }
  double hoeffding_n =
      3.0 * std::log(2.0 / delta) / (epsilon * epsilon * mu);
  state.counters["opt_N"] = static_cast<double>(opt_n);
  state.counters["hoeffding_N"] = hoeffding_n;
}
BENCHMARK(BM_OptEstimateVsHoeffding)->Iterations(3);

void BM_CoverageRun(benchmark::State& state) {
  Synopsis s = ChainSynopsis(state.range(0), 3);
  SymbolicSpace space(&s);
  for (auto _ : state) {
    Rng rng(5);
    benchmark::DoNotOptimize(SelfAdjustingCoverage(space, 0.1, 0.25, rng));
  }
}
BENCHMARK(BM_CoverageRun)->Arg(8)->Arg(64);

void BM_PreprocessTpch(benchmark::State& state) {
  TpchOptions options;
  options.scale_factor = 0.0005;
  Dataset d = GenerateTpch(options);
  ConjunctiveQuery q = MustParseCq(
      *d.schema,
      "Q(CK) :- customer(CK, CN, CA, NK, CP, CB, 'BUILDING', CC),"
      " orders(OK, CK, OS, TP, OD, OP, CL, SP, OC).");
  Rng rng(6);
  NoiseOptions noise;
  noise.p = 0.5;
  AddQueryAwareNoise(d.db.get(), q, noise, rng);
  for (auto _ : state) {
    PreprocessResult pre = BuildSynopses(*d.db, q);
    benchmark::DoNotOptimize(pre.NumAnswers());
  }
}
BENCHMARK(BM_PreprocessTpch);

/// Scan-throughput ablation, row path: materialize every row as a Tuple
/// (the pre-columnar access pattern) and filter one column against a
/// constant. Pays a vector + string allocation per row.
void BM_ScanRowView(benchmark::State& state) {
  TpchOptions options;
  options.scale_factor = 0.0005;
  Dataset d = GenerateTpch(options);
  const Relation& rel = d.db->relation("customer");
  const Value want("BUILDING");
  for (auto _ : state) {
    size_t hits = 0;
    for (size_t row = 0; row < rel.size(); ++row) {
      Tuple t = rel.row(row);
      if (t[6] == want) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_ScanRowView);

/// Scan-throughput ablation, columnar path: consume the same column as
/// raw runs, resolving the constant to a dictionary code once per chunk
/// and comparing uint32 codes row-wise. No allocation, no materialized
/// tuples.
void BM_ScanColumnRuns(benchmark::State& state) {
  TpchOptions options;
  options.scale_factor = 0.0005;
  Dataset d = GenerateTpch(options);
  const Relation& rel = d.db->relation("customer");
  const std::string want = "BUILDING";
  for (auto _ : state) {
    size_t hits = 0;
    rel.ForEachRun(6, [&](const ColumnRun& run) {
      if (run.encoding == SegmentEncoding::kDictionary) {
        const std::string* end = run.string_dict + run.dict_size;
        const std::string* it =
            std::lower_bound(run.string_dict, end, want);
        if (it == end || *it != want) return;
        uint32_t code = static_cast<uint32_t>(it - run.string_dict);
        for (size_t i = 0; i < run.length; ++i) {
          if (run.codes[i] == code) ++hits;
        }
      } else {
        for (size_t i = 0; i < run.length; ++i) {
          if (run.strings[i] == want) ++hits;
        }
      }
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_ScanColumnRuns);

/// Scan-throughput ablation, pruned point lookup: ScanMatching on the
/// (strictly ascending) customer key, where chunk min/max statistics
/// prune every chunk but the one holding the key.
void BM_ScanMatchingPruned(benchmark::State& state) {
  TpchOptions options;
  options.scale_factor = 0.0005;
  Dataset d = GenerateTpch(options);
  const Relation& rel = d.db->relation("customer");
  const std::vector<size_t> positions = {0};
  int64_t key = static_cast<int64_t>(rel.size() / 2);
  for (auto _ : state) {
    size_t hits = 0;
    rel.ScanMatching(positions, {Value(key)}, [&](size_t) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
  state.counters["chunks_pruned"] =
      static_cast<double>(rel.chunks_pruned());
}
BENCHMARK(BM_ScanMatchingPruned);

/// Ablation: the synopsis abstraction itself — approximating over the
/// synopsis vs the cost of even *scanning* the whole database once per
/// sample (what a synopsis-free implementation would pay).
void BM_WholeDatabaseScan(benchmark::State& state) {
  TpchOptions options;
  options.scale_factor = 0.0005;
  Dataset d = GenerateTpch(options);
  for (auto _ : state) {
    size_t count = 0;
    for (size_t rid = 0; rid < d.db->NumRelations(); ++rid) {
      count += d.db->relation(rid).size();
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_WholeDatabaseScan);

/// Machine-readable mode (--bench_json= and friends): instead of the
/// google-benchmark loops, run a small fixed-seed four-scheme matrix over
/// a noisy TPC-H pair — repeated trials per cell, with convergence
/// recording — and write the versioned BENCH_*.json the regression gate
/// (tools/bench_compare.py) consumes.
/// The preprocess-and-scan row (--scan_sf=): builds a noisy TPC-H pair at
/// the given scale factor and records, as plain timing cells, synopsis
/// preprocessing plus the row-view and column-run scan ablations over the
/// customer relation. Gated by tools/bench_compare.py like every other
/// cell of BENCH_micro.json.
void RunScanCells(obs::BenchJsonWriter* writer, uint64_t seed,
                  double scan_sf) {
  TpchOptions options;
  options.scale_factor = scan_sf;
  options.seed = seed;
  Dataset d = GenerateTpch(options);
  ConjunctiveQuery q = MustParseCq(
      *d.schema,
      "Q(CK) :- customer(CK, CN, CA, NK, CP, CB, 'BUILDING', CC),"
      " orders(OK, CK, OS, TP, OD, OP, CL, SP, OC).");
  Rng rng(seed ^ 0x9E3779B9);
  NoiseOptions noise;
  noise.p = 0.3;
  AddQueryAwareNoise(d.db.get(), q, noise, rng);
  const Relation& rel = d.db->relation("customer");
  const double rows = static_cast<double>(rel.size());
  const Value want("BUILDING");
  for (int trial = 0; trial < 3; ++trial) {
    Stopwatch pre_watch;
    PreprocessResult pre = BuildSynopses(*d.db, q);
    writer->AddSample("Scan", "sf", scan_sf, "Preprocess",
                      pre_watch.ElapsedSeconds(),
                      static_cast<double>(pre.NumAnswers()), false);

    Stopwatch row_watch;
    size_t row_hits = 0;
    for (size_t row = 0; row < rel.size(); ++row) {
      Tuple t = rel.row(row);
      if (t[6] == want) ++row_hits;
    }
    writer->AddSample("Scan", "sf", scan_sf, "RowScan",
                      row_watch.ElapsedSeconds(), rows, false);

    Stopwatch col_watch;
    size_t col_hits = 0;
    rel.ScanMatching({6}, {want}, [&](size_t) {
      ++col_hits;
      return true;
    });
    writer->AddSample("Scan", "sf", scan_sf, "ColumnScan",
                      col_watch.ElapsedSeconds(), rows, false);
    CQA_CHECK(row_hits == col_hits);
  }
}

int RunConvergenceMatrix(const std::string& json_path, uint64_t seed,
                         const std::string& convergence_path,
                         const std::string& chrome_path, double scan_sf) {
  const double kTimeoutSeconds = 5.0;
  obs::BenchJsonWriter writer;
  obs::BenchMetadata meta;
  meta.name = "bench_micro";
  meta.seed = seed;
  meta.scale_factor = 0.0005;
  meta.timeout_seconds = kTimeoutSeconds;
  meta.queries_per_level = 1;
  writer.SetMetadata(meta);

  obs::ConvergenceReporter convergence;
  RunSinks sinks;
  sinks.bench_json = &writer;
  std::string error;
  if (!convergence_path.empty()) {
    if (!convergence.Open(convergence_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    sinks.convergence = &convergence;
  }

  TpchOptions options;
  options.scale_factor = 0.0005;
  options.seed = seed;
  Dataset d = GenerateTpch(options);
  ConjunctiveQuery q = MustParseCq(
      *d.schema,
      "Q(CK) :- customer(CK, CN, CA, NK, CP, CB, 'BUILDING', CC),"
      " orders(OK, CK, OS, TP, OD, OP, CL, SP, OC).");
  Rng rng(seed ^ 0x2545F491);
  ApxParams params;
  for (double p : {0.2, 0.6}) {
    Database noisy = d.db->Clone();
    NoiseOptions noise;
    noise.p = p;
    AddQueryAwareNoise(&noisy, q, noise, rng);
    PreprocessResult pre = BuildSynopses(noisy, q);
    obs::RunContext context{"Micro", "noise", p};
    for (int trial = 0; trial < 3; ++trial) {
      RunAllSchemes(pre, params, kTimeoutSeconds, rng, sinks, context);
    }
  }

  if (scan_sf > 0.0) RunScanCells(&writer, seed, scan_sf);

  if (!json_path.empty()) {
    if (!writer.WriteFile(json_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("bench json: %s (%zu cells)\n", json_path.c_str(),
                writer.num_cells());
  }
  if (!chrome_path.empty()) {
    if (!obs::TraceBuffer::Instance().ExportChromeTrace(chrome_path,
                                                        &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("chrome trace: %s\n", chrome_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  // Our machine-readable flags are peeled off before google-benchmark
  // sees the command line (it rejects flags it does not know).
  std::string bench_json, obs_convergence, obs_trace_chrome;
  uint64_t seed = 20210620;
  double scan_sf = 0.0;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    char* arg = argv[i];
    if (std::strncmp(arg, "--bench_json=", 13) == 0) {
      bench_json = arg + 13;
    } else if (std::strncmp(arg, "--obs_convergence=", 18) == 0) {
      obs_convergence = arg + 18;
    } else if (std::strncmp(arg, "--obs_trace_chrome=", 19) == 0) {
      obs_trace_chrome = arg + 19;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--scan_sf=", 10) == 0) {
      scan_sf = std::strtod(arg + 10, nullptr);
    } else {
      passthrough.push_back(arg);
    }
  }
  if (!bench_json.empty() || !obs_convergence.empty() ||
      !obs_trace_chrome.empty()) {
    return cqa::RunConvergenceMatrix(bench_json, seed, obs_convergence,
                                     obs_trace_chrome, scan_sf);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
