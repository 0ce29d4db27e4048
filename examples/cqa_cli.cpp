// cqa_cli — a command-line front end to the library, the workflow a
// downstream user runs without writing C++:
//
//   cqa_cli gen    --schema=tpch --sf=0.0005 --out=DIR
//   cqa_cli noise  --schema=tpch --data=DIR --out=DIR2 --p=0.5
//                  --query='Q(N) :- ...'
//   cqa_cli run    --schema=tpch --data=DIR2 --scheme=KLM
//                  --query='Q(N) :- ...' [--epsilon=0.1 --delta=0.25]
//   cqa_cli prep   --schema=tpch --data=DIR2 --query='...' --out=FILE
//   cqa_cli approx --syn=FILE --scheme=KL
//   cqa_cli profile --schema=tpch --data=DIR2 --query='...'
//   cqa_cli sql    --schema=tpch --query='Q(N) :- ...'
//
// Data directories hold dbgen-style .tbl files (one per relation).
// `prep`/`approx` decouple the preprocessing step from the schemes via
// the synopsis-set serialization; `profile` prints the static and dynamic
// query parameters of §6.1 plus the advisor's recommendation.

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/flags.h"
#include "cqa/advisor.h"
#include "cqa/apx_cqa.h"
#include "cqa/rewriting.h"
#include "cqa/synopsis_io.h"
#include "gen/noise.h"
#include "gen/tpcds.h"
#include "gen/tpch.h"
#include "obs/bench_json.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#ifndef CQABENCH_NO_OBS
#include "obs/profiler.h"
#endif
#include "obs/report.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "storage/tbl_io.h"

using namespace cqa;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cqa_cli <gen|noise|run|sql> --schema=<tpch|tpcds>\n"
               "  gen    --sf=F --out=DIR [--seed=N]\n"
               "  noise  --data=DIR --out=DIR --query=Q [--p=F] [--min=N "
               "--max=N] [--seed=N]\n"
               "  run    --data=DIR --query=Q [--scheme=Natural|KL|KLM|Cover]"
               " [--epsilon=F --delta=F] [--timeout=S] [--seed=N]"
               " [--obs_report=FILE] [--obs_trace=FILE]"
               " [--obs_trace_chrome=FILE] [--obs_convergence=FILE]"
               " [--obs_metrics=FILE] [--bench_json=FILE]"
               " [--obs_profile=FILE] [--obs_profile_hz=N]"
               " [--obs_profile_fold=FILE]\n"
               "  prep   --data=DIR --query=Q --out=FILE\n"
               "  approx --syn=FILE [--scheme=...] [--epsilon=F --delta=F]\n"
               "  profile --data=DIR --query=Q\n"
               "  sql    --query=Q\n");
  return 2;
}

Schema MakeSchema(const std::string& name) {
  if (name == "tpcds") return MakeTpcdsSchema();
  return MakeTpchSchema();
}

bool LoadData(const std::string& dir, Database* db) {
  std::string error;
  if (!ReadTblDirectory(db, dir, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

bool ParseQueryFlag(const Schema& schema, const Flags& args,
                    ConjunctiveQuery* q) {
  std::string text = args.Get("query", "");
  if (text.empty()) {
    std::fprintf(stderr, "error: --query is required\n");
    return false;
  }
  std::string error;
  if (!ParseCq(schema, text, q, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

int CmdGen(const Flags& args) {
  if (!args.ValidateKeys({"schema", "sf", "out", "seed"})) return Usage();
  std::string out = args.Get("out", "");
  const double sf = args.GetDouble("sf", 0.0005);
  const uint64_t seed = args.GetCount("seed", 1);
  if (out.empty() || !args.ok()) return Usage();
  std::filesystem::create_directories(out);
  Dataset d;
  if (args.Get("schema", "tpch") == "tpcds") {
    d = GenerateTpcds(TpcdsOptions{sf, seed});
  } else {
    d = GenerateTpch(TpchOptions{sf, seed});
  }
  std::string error;
  if (!WriteTblDirectory(*d.db, out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu facts across %zu relations to %s\n",
              d.db->NumFacts(), d.db->NumRelations(), out.c_str());
  return 0;
}

int CmdNoise(const Flags& args) {
  if (!args.ValidateKeys(
          {"schema", "data", "out", "query", "p", "min", "max", "seed"})) {
    return Usage();
  }
  Rng rng(args.GetCount("seed", 7));
  NoiseOptions options;
  options.p = args.GetDouble("p", 0.5);
  options.min_block_size = args.GetCount("min", 2);
  options.max_block_size = args.GetCount("max", 5);
  if (!args.ok()) return Usage();
  Schema schema = MakeSchema(args.Get("schema", "tpch"));
  Database db(&schema);
  if (!LoadData(args.Get("data", "."), &db)) return 1;
  ConjunctiveQuery q;
  if (!ParseQueryFlag(schema, args, &q)) return 1;
  std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  std::filesystem::create_directories(out);

  NoiseStats stats = AddQueryAwareNoise(&db, q, options, rng);
  std::string error;
  if (!WriteTblDirectory(db, out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "noise: %zu relevant facts, %zu selected, %zu added; wrote %s\n",
      stats.relevant_facts, stats.selected_facts, stats.facts_added,
      out.c_str());
  return 0;
}

/// Writes `content` to `path`, reporting failures on stderr.
bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  ok &= std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
  return ok;
}

int CmdRun(const Flags& args) {
  if (!args.ValidateKeys({"schema", "data", "query", "scheme", "epsilon",
                          "delta", "timeout", "seed", "obs_report",
                          "obs_trace", "obs_trace_chrome", "obs_convergence",
                          "obs_metrics", "bench_json", "obs_profile",
                          "obs_profile_hz", "obs_profile_fold"})) {
    return Usage();
  }
  ApxParams params;
  params.epsilon = args.GetDouble("epsilon", 0.1);
  params.delta = args.GetDouble("delta", 0.25);
  const double timeout = args.GetDouble("timeout", -1.0);
  const uint64_t seed = args.GetCount("seed", 7);
  if (!args.ok()) return Usage();
  const std::string profile_path = args.Get("obs_profile", "");
  const std::string profile_fold_path = args.Get("obs_profile_fold", "");
  const bool profiling = !profile_path.empty() || !profile_fold_path.empty();
#ifdef CQABENCH_NO_OBS
  if (profiling || args.Has("obs_profile_hz")) {
    std::fprintf(stderr,
                 "error: --obs_profile* requires an observability build; "
                 "this binary was compiled with CQABENCH_NO_OBS\n");
    return 1;
  }
#else
  if (profiling) {
    obs::ProfilerOptions popts;
    const double hz = args.GetDouble("obs_profile_hz", popts.hz);
    if (!args.ok()) return Usage();
    if (hz < 1 || hz > 1000) {
      std::fprintf(stderr, "error: --obs_profile_hz must be in [1, 1000]\n");
      return 1;
    }
    popts.hz = static_cast<int>(hz);
    std::string error;
    if (!obs::Profiler::Instance().Start(popts, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
#endif  // CQABENCH_NO_OBS
  Schema schema = MakeSchema(args.Get("schema", "tpch"));
  Database db(&schema);
  if (!LoadData(args.Get("data", "."), &db)) return 1;
  ConjunctiveQuery q;
  if (!ParseQueryFlag(schema, args, &q)) return 1;

  std::optional<SchemeKind> scheme = ParseSchemeKind(args.Get("scheme", "KLM"));
  if (!scheme.has_value()) {
    std::fprintf(stderr, "error: unknown scheme (Natural|KL|KLM|Cover)\n");
    return 1;
  }
  obs::RunReporter reporter;
  std::string report_path = args.Get("obs_report", "");
  if (!report_path.empty()) {
    std::string error;
    if (!reporter.Open(report_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  obs::ConvergenceReporter convergence;
  std::string convergence_path = args.Get("obs_convergence", "");
  if (!convergence_path.empty()) {
    std::string error;
    if (!convergence.Open(convergence_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  std::string bench_json_path = args.Get("bench_json", "");
  params.record_convergence =
      convergence.is_open() || !bench_json_path.empty();

  Rng rng(seed);
  CqaRunResult run =
      ApxCqa(db, q, *scheme, params, rng,
             timeout > 0 ? Deadline(timeout) : Deadline::Infinite());
  std::printf("# preprocessing %.4fs, scheme %.4fs, %zu samples%s\n",
              run.preprocess_seconds, run.scheme_seconds, run.total_samples,
              run.timed_out ? " (TIMED OUT, partial)" : "");
  for (const CqaAnswer& a : run.answers) {
    std::printf("%s\t%.6f\n", TupleToString(a.tuple).c_str(), a.frequency);
  }

  obs::RunContext context{"cli:run", "timeout", timeout};
  if (reporter.is_open() || !bench_json_path.empty()) {
    obs::RunRecord record =
        MakeRunRecord(run, *scheme, context,
                      run.preprocess_seconds + run.scheme_seconds);
    if (reporter.is_open()) reporter.Add(record);
    if (!bench_json_path.empty()) {
      obs::BenchJsonWriter writer;
      obs::BenchMetadata meta;
      meta.name = "cqa_cli";
      meta.seed = seed;
      meta.timeout_seconds = timeout;
      meta.epsilon = params.epsilon;
      meta.delta = params.delta;
      writer.SetMetadata(meta);
      writer.AddRun(record);
      std::string error;
      if (!writer.WriteFile(bench_json_path, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
    }
  }
  if (convergence.is_open()) {
    for (const obs::ConvergenceSeries& series : run.convergence) {
      convergence.Add(context.scenario, context.x_label, context.x,
                      SchemeKindName(*scheme), series);
    }
    convergence.Close();
  }
  std::string metrics_path = args.Get("obs_metrics", "");
  if (!metrics_path.empty()) {
    if (!WriteTextFile(metrics_path, obs::Registry::Instance().ToJson())) {
      return 1;
    }
  }
  std::string trace_path = args.Get("obs_trace", "");
  if (!trace_path.empty()) {
    std::string error;
    if (!obs::TraceBuffer::Instance().ExportJsonl(trace_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  std::string chrome_path = args.Get("obs_trace_chrome", "");
  if (!chrome_path.empty()) {
    std::string error;
    if (!obs::TraceBuffer::Instance().ExportChromeTrace(chrome_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
#ifndef CQABENCH_NO_OBS
  if (profiling) {
    obs::Profiler& profiler = obs::Profiler::Instance();
    profiler.Stop();
    if (!profile_path.empty() &&
        !WriteTextFile(profile_path, profiler.PprofGzipped())) {
      return 1;
    }
    if (!profile_fold_path.empty() &&
        !WriteTextFile(profile_fold_path, profiler.FoldedText())) {
      return 1;
    }
    const obs::ProfilerStats stats = profiler.stats();
    std::printf("# cpu profile: %llu samples, %llu stacks\n",
                static_cast<unsigned long long>(stats.samples),
                static_cast<unsigned long long>(stats.distinct_stacks));
  }
#endif  // CQABENCH_NO_OBS
  return 0;
}

int CmdPrep(const Flags& args) {
  if (!args.ValidateKeys({"schema", "data", "query", "out"})) return Usage();
  Schema schema = MakeSchema(args.Get("schema", "tpch"));
  Database db(&schema);
  if (!LoadData(args.Get("data", "."), &db)) return 1;
  ConjunctiveQuery q;
  if (!ParseQueryFlag(schema, args, &q)) return 1;
  std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  PreprocessResult pre = BuildSynopses(db, q);
  std::string error;
  if (!WriteSynopses(pre, out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "preprocessed in %.4fs: %zu answers, %zu images, balance %.3f -> %s\n",
      pre.stats().seconds, pre.NumAnswers(),
      pre.stats().num_distinct_images, pre.Balance(), out.c_str());
  return 0;
}

int CmdApprox(const Flags& args) {
  if (!args.ValidateKeys({"syn", "scheme", "epsilon", "delta", "seed"})) {
    return Usage();
  }
  std::string path = args.Get("syn", "");
  ApxParams params;
  params.epsilon = args.GetDouble("epsilon", 0.1);
  params.delta = args.GetDouble("delta", 0.25);
  Rng rng(args.GetCount("seed", 7));
  if (path.empty() || !args.ok()) return Usage();
  std::vector<AnswerSynopsis> synopses;
  std::string error;
  if (!ReadSynopses(path, &synopses, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::optional<SchemeKind> scheme =
      ParseSchemeKind(args.Get("scheme", "KLM"));
  if (!scheme.has_value()) {
    std::fprintf(stderr, "error: unknown scheme (Natural|KL|KLM|Cover)\n");
    return 1;
  }
  auto apx = ApxRelativeFreqScheme::Create(*scheme);
  for (const AnswerSynopsis& as : synopses) {
    ApxResult r = apx->Run(as.synopsis, params, rng);
    std::printf("%s\t%.6f\n", TupleToString(as.answer).c_str(), r.estimate);
  }
  return 0;
}

int CmdProfile(const Flags& args) {
  if (!args.ValidateKeys({"schema", "data", "query"})) return Usage();
  Schema schema = MakeSchema(args.Get("schema", "tpch"));
  Database db(&schema);
  if (!LoadData(args.Get("data", "."), &db)) return 1;
  ConjunctiveQuery q;
  if (!ParseQueryFlag(schema, args, &q)) return 1;
  PreprocessResult pre = BuildSynopses(db, q);
  size_t conflicting = 0, blocks = 0;
  for (const AnswerSynopsis& as : pre.answers()) {
    blocks += as.synopsis.NumBlocks();
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      if (b.size > 1) ++conflicting;
    }
  }
  std::printf("static parameters\n");
  std::printf("  atoms:              %zu\n", q.NumAtoms());
  std::printf("  joins:              %zu\n", q.NumJoins());
  std::printf("  constants:          %zu\n", q.NumConstantOccurrences());
  std::printf("  boolean:            %s\n", q.IsBoolean() ? "yes" : "no");
  std::printf("dynamic parameters (w.r.t. the loaded database)\n");
  std::printf("  output size |Q(D)|: %zu\n", pre.NumAnswers());
  std::printf("  homomorphic size:   %zu\n",
              pre.stats().num_distinct_images);
  std::printf("  balance:            %.4f\n", pre.Balance());
  std::printf("  synopsis blocks:    %zu (%zu conflicting)\n", blocks,
              conflicting);
  std::printf("  preprocessing:      %.4fs\n", pre.stats().seconds);
  std::printf("recommended scheme:   %s\n",
              SchemeKindName(RecommendScheme(pre)));
  std::printf("  rationale:          %s\n", RecommendationRationale(pre));
  return 0;
}

int CmdSql(const Flags& args) {
  if (!args.ValidateKeys({"schema", "query"})) return Usage();
  Schema schema = MakeSchema(args.Get("schema", "tpch"));
  ConjunctiveQuery q;
  if (!ParseQueryFlag(schema, args, &q)) return 1;
  for (size_t rid = 0; rid < schema.NumRelations(); ++rid) {
    bool used = false;
    for (const Atom& a : q.atoms()) used |= a.relation_id == rid;
    if (used) {
      std::printf("%s\n\n", RelationViewSql(schema.relation(rid), rid).c_str());
    }
  }
  std::printf("%s\n", RewritingSql(schema, q).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags args;
  args.command = argv[1];
  if (!args.Parse(argc, argv, 2)) return Usage();
  if (args.command == "gen") return CmdGen(args);
  if (args.command == "noise") return CmdNoise(args);
  if (args.command == "run") return CmdRun(args);
  if (args.command == "prep") return CmdPrep(args);
  if (args.command == "approx") return CmdApprox(args);
  if (args.command == "profile") return CmdProfile(args);
  if (args.command == "sql") return CmdSql(args);
  return Usage();
}
