// The offline workloads, prep-* and sample-sf001: the paper pipeline
// (ReadTblDirectory -> BuildSynopses -> ApxCqaOnSynopses) run in-process
// through the library's public calls.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "cqa/apx_cqa.h"
#include "cqa/exact.h"
#include "cqa/symbolic_space.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "query/evaluator.h"
#include "storage/block_index.h"
#include "storage/tbl_io.h"

namespace perfbench {

namespace {

using cqa::SchemeKind;

struct CellSpec {
  std::string query;
  SchemeKind scheme;
  size_t threads;
};

struct OfflineSpec {
  std::vector<std::string> queries;  // Preprocessed at the start of a pass.
  std::vector<CellSpec> cells;       // Scheme runs over those synopses.
  size_t setup_loads;                // ReadTblDirectory repetitions.
  bool rebuild;                      // Preprocess a cell's query again
                                     // before each cell.
  size_t runs;                       // Scheme runs per cell per pass.
  bool exact_check;                  // Compare estimates with the oracle.
  std::string pool_query;            // Cell whose threads=2 run is timed
                                     // against a serial one (traced only).
};

// Cells are chosen so every scheme finishes well within the per-cell
// deadline on its instance; see README.md for the measured costs. Short
// calls are repeated so the run has more repeats to take the fastest of:
// the schemes of the prep workloads (0.2 s in all) three times a pass,
// and sample-sf001's preprocessing (50-200 ms a query, one pass a run)
// once more before each cell, so its repeats are spread over the pass
// rather than falling into one slow spell of the host.
OfflineSpec SpecFor(const std::string& workload) {
  if (workload.rfind("prep-", 0) == 0) {
    return OfflineSpec{{"Q1_H", "Q8_H", "Q12_H"},
                       {{"Q1_H", SchemeKind::kNatural, 1},
                        {"Q8_H", SchemeKind::kKl, 1},
                        {"Q12_H", SchemeKind::kNatural, 1}},
                       5,
                       false,
                       3,
                       false,
                       ""};
  }
  OfflineSpec spec{{"Q5_H", "Q8_H", "Q10_H"}, {}, 5, true, 1, true, "Q10_H"};
  for (const char* q : {"Q5_H", "Q8_H"}) {
    for (SchemeKind s : cqa::AllSchemeKinds()) spec.cells.push_back({q, s, 1});
  }
  spec.cells.push_back({"Q10_H", SchemeKind::kNatural, 1});
  spec.cells.push_back({"Q10_H", SchemeKind::kCover, 1});
  spec.cells.push_back({"Q10_H", SchemeKind::kKlm, 2});
  return spec;
}

constexpr double kCellDeadlineSeconds = 120.0;

// An (eps, delta) estimate of a frequency R <= 1 may exceed 1 by up to
// eps R, so a certain answer (R = 1) can legitimately read 1.00007.
const double kMaxEstimate = 1.0 + cqa::ApxParams().epsilon;

struct CellRun {
  cqa::CqaRunResult run;
  double seconds = 0.0;  // Median wall time of the repeats.
};

// Wall time of one pass: the traced figures.
struct PassRun {
  double wall = 0.0;
  double covered = 0.0;  // Time inside timed layer calls.
  std::map<std::string, std::unique_ptr<cqa::PreprocessResult>> pre;
  std::vector<CellRun> cells;
};

// Process CPU seconds of every timed call of a run, over all its passes:
// the end-to-end figures take the fastest repeat of each.
struct RunCpu {
  std::vector<double> passes;
  std::map<std::string, std::vector<double>> builds;  // Per query.
  std::vector<std::vector<double>> cells;              // Per cell.

  double Preprocess() const {
    double sum = 0.0;
    for (const auto& [query, times] : builds) sum += Min(times);
    return sum;
  }
  double Scheme() const {
    double sum = 0.0;
    for (const std::vector<double>& times : cells) sum += Min(times);
    return sum;
  }
};

uint64_t CellSeed(uint64_t seed, size_t cell) {
  return cqa::SplitMix64(seed * 1000003ULL + cell);
}

// One pass over the workload's cells. The per-cell RNG seeds depend only
// on the run seed, so every pass of a run does identical work.
PassRun RunPass(const cqa::Database& db, const OfflineSpec& spec,
                const std::map<std::string, cqa::ConjunctiveQuery>& queries,
                uint64_t seed, Tracer& tracer, RunCpu* cpu) {
  PassRun pass;
  ScopedSpan pass_span(tracer, "bench.pass", 0, "pass");
  const double start = Now();
  const double cpu_start = CpuNow();
  auto build = [&](const std::string& name) {
    ScopedSpan span(tracer, "cqa.BuildSynopses", pass_span.id(), name);
    const double t0 = Now();
    const double c0 = CpuNow();
    auto pre = std::make_unique<cqa::PreprocessResult>(
        cqa::BuildSynopses(db, queries.at(name)));
    cpu->builds[name].push_back(CpuNow() - c0);
    pass.covered += Now() - t0;
    return pre;
  };
  for (const std::string& name : spec.queries) pass.pre[name] = build(name);
  cpu->cells.resize(spec.cells.size());
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const CellSpec& cell = spec.cells[c];
    // A timed copy, dropped at once: the kept results stay as they are,
    // so every rebuild starts from the same heap.
    if (spec.rebuild) build(cell.query);
    cqa::ApxParams params;
    params.num_threads = cell.threads;
    const std::string item =
        cell.query + "/" + cqa::SchemeKindName(cell.scheme);
    std::vector<double> runs;
    CellRun run;
    for (size_t r = 0; r < spec.runs; ++r) {
      cqa::Rng rng(CellSeed(seed, c));  // Every repeat does the same work.
      ScopedSpan span(tracer, "cqa.ApxCqaOnSynopses", pass_span.id(), item);
      const double t0 = Now();
      const double c0 = CpuNow();
      run.run = cqa::ApxCqaOnSynopses(*pass.pre.at(cell.query), cell.scheme,
                                      params, rng,
                                      cqa::Deadline(kCellDeadlineSeconds));
      cpu->cells[c].push_back(CpuNow() - c0);
      runs.push_back(Now() - t0);
      pass.covered += runs.back();
    }
    run.seconds = Median(runs);
    pass.cells.push_back(std::move(run));
  }
  cpu->passes.push_back(CpuNow() - cpu_start);
  pass.wall = Now() - start;
  return pass;
}

// Checks one pass: the per-query input fingerprint is the same as in the
// first pass, and every scheme returned exactly the preprocessing answer
// set with estimates in (0, 1].
void CheckPass(const PassRun& pass, const OfflineSpec& spec,
               RunResult* result) {
  for (const std::string& name : spec.queries) {
    const cqa::PreprocessStats& st = pass.pre.at(name)->stats();
    const std::map<std::string, uint64_t> observed = {
        {"query." + name + ".homomorphisms", st.num_homomorphisms},
        {"query." + name + ".distinct_images", st.num_distinct_images},
        {"query." + name + ".answers", pass.pre.at(name)->NumAnswers()}};
    for (const auto& [key, value] : observed) {
      auto [it, inserted] = result->counts.emplace(key, value);
      if (!inserted && it->second != value) {
        result->Fail(key + " changed between passes");
      }
    }
  }
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const CellSpec& cell = spec.cells[c];
    const cqa::CqaRunResult& run = pass.cells[c].run;
    const auto& expected = pass.pre.at(cell.query)->answers();
    const std::string item =
        cell.query + "/" + cqa::SchemeKindName(cell.scheme);
    ++result->attempted;
    std::string why = run.timed_out ? "timed out" : "";
    if (why.empty() && run.answers.size() != expected.size()) {
      why = "returned " + std::to_string(run.answers.size()) + " of " +
            std::to_string(expected.size()) + " answers";
    }
    for (size_t i = 0; why.empty() && i < expected.size(); ++i) {
      const double f = run.answers[i].frequency;
      if (run.answers[i].tuple != expected[i].answer) {
        why = "answer " + std::to_string(i) + " differs";
      } else if (!(f > 0.0 && f <= kMaxEstimate)) {
        why = "estimate " + std::to_string(f) + " of answer " +
              std::to_string(i) + " outside (0, 1 + eps]";
      }
    }
    if (!why.empty()) {
      ++result->failed;
      result->Fail("cell " + item + ": " + why);
    }
  }
}

// Share of estimates with |R^ - R| > eps R, against the decomposed exact
// oracle on the synopses it can solve. Returns {misses, compared}.
std::pair<size_t, size_t> EpsMisses(const PassRun& pass,
                                    const OfflineSpec& spec) {
  const double eps = cqa::ApxParams().epsilon;
  std::map<std::string, std::vector<std::optional<double>>> exact;
  for (const std::string& name : spec.queries) {
    auto& values = exact[name];
    for (const cqa::AnswerSynopsis& as : pass.pre.at(name)->answers()) {
      values.push_back(cqa::ExactRatioDecomposed(as.synopsis, 12));
    }
  }
  size_t misses = 0;
  size_t compared = 0;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const auto& values = exact.at(spec.cells[c].query);
    const auto& answers = pass.cells[c].run.answers;
    for (size_t i = 0; i < answers.size() && i < values.size(); ++i) {
      if (!values[i].has_value()) continue;
      ++compared;
      const double r = *values[i];
      if (std::abs(answers[i].frequency - r) > eps * r) ++misses;
    }
  }
  return {misses, compared};
}

}  // namespace

int RunOffline(const RunConfig& config, Tracer& tracer, RunResult* result) {
  const OfflineSpec spec = SpecFor(config.workload);
  const cqa::Schema schema = cqa::MakeTpchSchema();
  std::map<std::string, cqa::ConjunctiveQuery> queries;
  for (const cqa::NamedQuery& q : cqa::TpchValidationQueries(schema)) {
    queries.emplace(q.name, q.query);
  }

  // Set-up: load the cached instance several times, keep the last copy.
  std::vector<double> loads, load_walls;
  std::unique_ptr<cqa::Database> db;
  for (size_t i = 0; i < spec.setup_loads; ++i) {
    db.reset();  // Free the previous copy first: peak memory holds one.
    db = std::make_unique<cqa::Database>(&schema);
    std::string error;
    ScopedSpan span(tracer, "storage.ReadTblDirectory", 0, "setup");
    const double t0 = Now();
    const double c0 = CpuNow();
    if (!cqa::ReadTblDirectory(db.get(), config.data_dir, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    loads.push_back(CpuNow() - c0);
    load_walls.push_back(Now() - t0);
  }
  for (size_t r = 0; r < schema.NumRelations(); ++r) {
    const std::string& name = schema.relation(r).name();
    result->counts["rows." + name] = db->relation(r).size();
    uint64_t sum = 0;
    if (!ChecksumFile(config.data_dir + "/" + name + ".tbl", &sum)) {
      std::fprintf(stderr, "error: cannot read %s.tbl\n", name.c_str());
      return 1;
    }
    result->counts["tbl." + name + ".checksum"] = sum;
  }

  // Measured passes: untraced runs repeat identical passes until the time
  // is up and report the fastest repeat of each call; a traced run makes
  // one traced pass. Peak memory is read after the first pass, so it does
  // not depend on how many passes fit in the time.
  RunCpu cpu;
  double peak_rss_mb = 0.0;
  std::optional<PassRun> last;
  const double measure_start = Now();
  do {
    last.reset();
    last.emplace(RunPass(*db, spec, queries, config.seed, tracer, &cpu));
    CheckPass(*last, spec, result);
    if (cpu.passes.size() == 1) peak_rss_mb = PeakRssMb();
    std::fprintf(stderr, "pass %zu: %.3f s wall, %.3f s CPU\n",
                 cpu.passes.size(), last->wall, cpu.passes.back());
  } while (!config.traced && Now() - measure_start < config.seconds);

  const auto [misses, compared] =
      spec.exact_check ? EpsMisses(*last, spec) : std::pair<size_t, size_t>{};
  if (spec.exact_check) {
    std::fprintf(stderr, "exact check: %zu of %zu estimates off by > eps\n",
                 misses, compared);
  }
  const double eps_miss_rate =
      compared == 0 ? 0.0
                    : static_cast<double>(misses) / static_cast<double>(compared);
  if (eps_miss_rate > cqa::ApxParams().delta) {
    result->Fail("eps miss rate " + std::to_string(eps_miss_rate) +
                 " exceeds delta");
  }

  if (!config.traced) {
    result->Set("setup_s", Median(loads), "s");
    result->Set("pass_cpu_s", Min(cpu.passes), "s");
    result->Set("preprocess_cpu_s", cpu.Preprocess(), "s");
    result->Set("scheme_cpu_s", cpu.Scheme(), "s");
    result->Set("peak_rss_mb", peak_rss_mb, "MB");
    return 0;
  }

  // The standalone layer calls that split the traced pass up.
  const PassRun& pass = *last;
  const size_t pass_spans = tracer.spans().size();
  const double facts = static_cast<double>(db->NumFacts());
  const double load_s = Median(load_walls);
  result->Set("storage.load_s", load_s, "s");
  result->Set("storage.load_mrows_per_s", facts / load_s / 1e6, "Mrows/s");
  result->Set("storage.bytes_per_fact",
              static_cast<double>(db->MemoryBytes()) / facts, "B");
  double block_index_s = 0.0;
  {
    ScopedSpan span(tracer, "storage.BlockIndex::Build", 0, "standalone");
    const double t0 = Now();
    const cqa::BlockIndex index = cqa::BlockIndex::Build(*db);
    block_index_s = Now() - t0;
  }
  result->Set("storage.block_index_s", block_index_s, "s");

  double cold_total = 0.0, warm_total = 0.0, homs = 0.0, distinct = 0.0,
         images = 0.0, answers = 0.0, encode = 0.0, symbolic = 0.0;
  for (const std::string& name : spec.queries) {
    cqa::DatabaseIndexCache cache(db.get());
    cqa::CqEvaluator evaluator(db.get(), &cache);
    double cold = 0.0, warm = 0.0;
    {
      ScopedSpan span(tracer, "query.CountHomomorphisms.cold", 0, name);
      const double t0 = Now();
      evaluator.CountHomomorphisms(queries.at(name));
      cold = Now() - t0;
    }
    {
      ScopedSpan span(tracer, "query.CountHomomorphisms.warm", 0, name);
      const double t0 = Now();
      evaluator.CountHomomorphisms(queries.at(name));
      warm = Now() - t0;
    }
    cold_total += cold;
    warm_total += warm;
    const cqa::PreprocessResult& pre = *pass.pre.at(name);
    homs += static_cast<double>(pre.stats().num_homomorphisms);
    distinct += static_cast<double>(pre.stats().num_distinct_images);
    images += static_cast<double>(pre.stats().num_images);
    answers += static_cast<double>(pre.NumAnswers());
    // Derived, not timed: BuildSynopses minus one block-index build and
    // one cold evaluation is the consistency filter plus encoding.
    double build = 0.0;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.name == "cqa.BuildSynopses" && s.item == name) {
        build = s.end - s.start;
      }
    }
    encode += build - block_index_s - cold;
    ScopedSpan span(tracer, "cqa.SymbolicSpace", 0, name);
    const double t0 = Now();
    for (const cqa::AnswerSynopsis& as : pre.answers()) {
      if (as.synopsis.NumImages() == 0) continue;
      const cqa::SymbolicSpace space(&as.synopsis);
    }
    symbolic += Now() - t0;
  }
  result->Set("query.index_build_s", cold_total - warm_total, "s");
  result->Set("query.eval_s", warm_total, "s");
  result->Set("query.homomorphisms", homs, "count");
  result->Set("query.ns_per_hom", homs > 0 ? warm_total / homs * 1e9 : 0.0,
              "ns");
  result->Set("cqa.encode_s", encode, "s");
  result->Set("cqa.consistent_ratio", homs > 0 ? distinct / homs : 0.0,
              "ratio");
  result->Set("cqa.answers", answers, "count");
  result->Set("cqa.images", images, "count");
  result->Set("cqa.symbolic_build_s", symbolic, "s");

  struct SchemeTotals {
    double seconds = 0.0, samples = 0.0, estimator = 0.0, busy = 0.0;
  };
  std::map<std::string, SchemeTotals> totals;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    SchemeTotals& t = totals[cqa::SchemeKindName(spec.cells[c].scheme)];
    const cqa::CqaRunResult& run = pass.cells[c].run;
    t.seconds += pass.cells[c].seconds;
    t.samples += static_cast<double>(run.total_samples);
    t.estimator += run.estimator_seconds;
    t.busy += run.estimator_seconds + run.main_seconds;
  }
  for (SchemeKind kind : cqa::AllSchemeKinds()) {
    const std::string s = cqa::SchemeKindName(kind);
    const SchemeTotals t = totals[s];
    result->Set("cqa." + s + ".scheme_s", t.seconds, "s");
    result->Set("cqa." + s + ".samples", t.samples, "count");
    result->Set("cqa." + s + ".ns_per_sample",
                t.samples > 0 ? t.seconds / t.samples * 1e9 : 0.0, "ns");
    if (kind != SchemeKind::kCover) {
      result->Set("cqa." + s + ".estimator_share",
                  t.busy > 0 ? t.estimator / t.busy : 0.0, "ratio");
    }
  }
  result->Set("cqa.eps_miss_rate", eps_miss_rate, "ratio");

  double speedup = 0.0;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const CellSpec& cell = spec.cells[c];
    if (cell.query != spec.pool_query || cell.threads < 2) continue;
    cqa::ApxParams params;
    cqa::Rng rng(CellSeed(config.seed, c));
    ScopedSpan span(tracer, "common.serial_reference", 0, cell.query);
    const double t0 = Now();
    cqa::ApxCqaOnSynopses(*pass.pre.at(cell.query), cell.scheme, params, rng);
    speedup = (Now() - t0) / pass.cells[c].seconds;
  }
  result->Set("common.pool.speedup", speedup, "x");

  // Spans in the pass (set-up loads excluded) times the cost of one.
  const double pass_span_count =
      static_cast<double>(pass_spans - spec.setup_loads);
  result->Set("obs.trace_overhead",
              pass_span_count * Tracer::SpanCostSeconds() / pass.wall,
              "ratio");
  result->Set("trace.coverage", pass.covered / pass.wall, "ratio");
  result->Set("sat_rps", static_cast<double>(spec.cells.size()) / pass.wall,
              "1/s");
  result->Set("fail_ratio",
              static_cast<double>(result->failed) /
                  static_cast<double>(result->attempted),
              "ratio");
  return 0;
}

}  // namespace perfbench
