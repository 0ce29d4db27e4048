#include "serve/engine.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/schemes.h"
#include "gen/tpcds.h"
#include "gen/tpch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "storage/tbl_io.h"
#include "storage/tuple.h"

namespace cqa::serve {

namespace {

// Canonicalizes the data directory so "./db" and "db/" share one cache
// slot. Falls back to the raw path when the filesystem cannot resolve it
// (the load will then fail with a proper not-found error).
std::string CanonicalDataPath(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path canonical =
      std::filesystem::weakly_canonical(path, ec);
  if (ec) return path;
  return canonical.string();
}

}  // namespace

CqaEngine::CqaEngine(const EngineOptions& options)
    : options_(options), synopsis_cache_(options.cache_entries) {}

Deadline CqaEngine::MakeDeadline(const Request& request) const {
  if (request.deadline_s > 0) return Deadline(request.deadline_s);
  if (options_.default_deadline_s > 0) {
    return Deadline(options_.default_deadline_s);
  }
  return Deadline::Infinite();
}

std::shared_ptr<LoadedDatabase> CqaEngine::GetDatabase(
    const std::string& schema, const std::string& data_path,
    ErrorCode* code, std::string* error) {
  const std::string key = schema + "\n" + CanonicalDataPath(data_path);
  // The lock is held across the load on purpose: database loads are rare
  // (the LRU holds the working set) and concurrent loads of one directory
  // would duplicate hundreds of MB; serializing them is the simple safe
  // choice. See docs/architecture.md §cqad.
  MutexLock lock(db_mu_);
  for (auto it = db_cache_.begin(); it != db_cache_.end(); ++it) {
    if (it->first == key) {
      db_cache_.splice(db_cache_.begin(), db_cache_, it);
      return db_cache_.front().second;
    }
  }
  std::shared_ptr<LoadedDatabase> loaded;
  if (schema == "tpch") {
    loaded = std::make_shared<LoadedDatabase>(MakeTpchSchema());
  } else if (schema == "tpcds") {
    loaded = std::make_shared<LoadedDatabase>(MakeTpcdsSchema());
  } else {
    *code = ErrorCode::kBadRequest;
    *error = "unknown schema: " + schema;
    return nullptr;
  }
  std::string read_error;
  if (!ReadTblDirectory(&loaded->db, data_path, &read_error)) {
    *code = ErrorCode::kNotFound;
    *error = "cannot load database '" + data_path + "': " + read_error;
    return nullptr;
  }
  CQA_OBS_COUNT("serve.db_loads");
  db_cache_.emplace_front(key, std::move(loaded));
  while (db_cache_.size() > std::max<size_t>(1, options_.db_cache_entries)) {
    db_cache_.pop_back();
  }
  return db_cache_.front().second;
}

Response CqaEngine::ExecuteQuery(const Request& request,
                                 const Deadline& deadline,
                                 uint64_t parent_span) {
  Response response;
  response.id = request.id;

  const std::optional<SchemeKind> scheme = ParseSchemeKind(request.scheme);
  if (!scheme.has_value()) {
    return Response::MakeError(ErrorCode::kBadRequest,
                               "unknown scheme: " + request.scheme,
                               request.id);
  }

  // The preprocess phase accumulates everything that stands between the
  // wire request and runnable synopses: database load, query parse, and
  // (on a cache miss) the synopsis build inside the cache's flight.
  const Stopwatch preprocess_watch;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  const std::shared_ptr<LoadedDatabase> db =
      GetDatabase(request.schema, request.data, &code, &error);
  if (db == nullptr) return Response::MakeError(code, error, request.id);

  ConjunctiveQuery query;
  if (!ParseCq(db->schema, request.query, &query, &error)) {
    return Response::MakeError(ErrorCode::kBadRequest,
                               "query parse error: " + error, request.id);
  }
  const uint64_t load_parse_micros =
      static_cast<uint64_t>(preprocess_watch.ElapsedSeconds() * 1e6);

  const std::string cache_key =
      SynopsisCacheKey(CanonicalDataPath(request.data), request.schema,
                       request.query);
  bool cache_hit = false;
  uint64_t build_micros = 0;
  std::shared_ptr<const PreprocessResult> pre;
  const Stopwatch cache_watch;
  {
    obs::TraceSpan cache_span("serve.cache", parent_span, request.trace_id);
    pre = synopsis_cache_.GetOrBuild(
        cache_key,
        [&](std::string* build_error)
            -> std::shared_ptr<const PreprocessResult> {
          obs::TraceSpan build_span("serve.preprocess", cache_span.id(),
                                    request.trace_id);
          const Stopwatch build_watch;
          PreprocessResult result =
              BuildSynopses(db->db, query, &db->index_cache);
          (void)build_error;
          build_micros =
              static_cast<uint64_t>(build_watch.ElapsedSeconds() * 1e6);
          return std::make_shared<const PreprocessResult>(std::move(result));
        },
        &cache_hit, &error);
  }
  const uint64_t cache_total_micros =
      static_cast<uint64_t>(cache_watch.ElapsedSeconds() * 1e6);
  response.timing.recorded = true;
  // Cache overhead is the lookup minus the build it ran on this thread;
  // for a single-flight waiter it is the whole wait on the builder.
  response.timing.cache_micros =
      cache_total_micros > build_micros ? cache_total_micros - build_micros
                                        : 0;
  response.timing.preprocess_micros = load_parse_micros + build_micros;
  if (pre == nullptr) {
    return Response::MakeError(ErrorCode::kInternal,
                               "preprocess failed: " + error, request.id);
  }
  if (deadline.Expired()) {
    return Response::MakeError(ErrorCode::kDeadlineExceeded,
                               "deadline expired during preprocessing",
                               request.id);
  }

  ApxParams params;
  params.epsilon = request.epsilon;
  params.delta = request.delta;
  params.num_threads = request.threads;
  Rng rng(request.seed);
  const Stopwatch watch;
  CqaRunResult run;
  {
    obs::TraceSpan sample_span("serve.sample", parent_span, request.trace_id);
    run = ApxCqaOnSynopses(*pre, *scheme, params, rng, deadline);
  }
  const double total_seconds = watch.ElapsedSeconds();
  response.timing.sample_micros =
      static_cast<uint64_t>(total_seconds * 1e6);

  const Stopwatch encode_watch;
  {
    obs::TraceSpan encode_span("serve.encode", parent_span, request.trace_id);
    response.code = ErrorCode::kOk;
    response.cache_hit = cache_hit;
    response.timed_out = run.timed_out;
    // Report the preprocessing this request actually paid: 0 when the
    // synopses came from cache (that is the service's amortization win).
    response.preprocess_seconds = cache_hit ? 0.0 : pre->stats().seconds;
    response.scheme_seconds = run.scheme_seconds;
    response.total_samples = run.total_samples;
    response.answers.reserve(run.answers.size());
    for (const CqaAnswer& answer : run.answers) {
      response.answers.push_back(
          ResponseAnswer{TupleToString(answer.tuple), answer.frequency});
    }

    if (request.want_record || options_.reporter != nullptr) {
      obs::RunContext context;
      context.scenario = "cqad";
      context.x_label = "seed";
      context.x = static_cast<double>(request.seed);
      obs::RunRecord record =
          MakeRunRecord(run, *scheme, context, total_seconds);
      record.preprocess_seconds = cache_hit ? 0.0 : pre->stats().seconds;
      if (request.want_record) {
        response.run_record_json = obs::RunRecordToJson(record);
      }
      if (options_.reporter != nullptr) options_.reporter->Add(record);
    }
  }
  response.timing.encode_micros =
      static_cast<uint64_t>(encode_watch.ElapsedSeconds() * 1e6);

  CQA_OBS_COUNT("serve.queries");
  if (run.timed_out) CQA_OBS_COUNT("serve.query_timeouts");
  CQA_OBS_OBSERVE("serve.query_micros", total_seconds * 1e6);
  return response;
}

}  // namespace cqa::serve
