// serve/engine — the socket-free core of cqad: resolves a decoded query
// Request against cached databases and cached synopses and runs the
// approximation scheme. Splitting this from the server keeps the whole
// request path (validation, cache keying, deadline mapping, response
// assembly) unit-testable without a TCP connection, and the server a
// thin transport.
#ifndef CQABENCH_SERVE_ENGINE_H_
#define CQABENCH_SERVE_ENGINE_H_

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "cqa/apx_cqa.h"
#include "obs/report.h"
#include "query/evaluator.h"
#include "serve/protocol.h"
#include "serve/synopsis_cache.h"
#include "storage/database.h"

namespace cqa::serve {

struct EngineOptions {
  /// Synopsis-cache capacity in (database, Σ, Q) entries.
  size_t cache_entries = 64;
  /// Loaded-database cache capacity (a database is the expensive part:
  /// .tbl parsing, evaluation indexes and the one block index that every
  /// synopsis-cache entry for it references).
  size_t db_cache_entries = 4;
  /// Deadline applied when a request carries none. <= 0 means no limit.
  double default_deadline_s = 30.0;
  /// When non-null, every query run appends its RunRecord there (the
  /// JSONL file behind cqad --obs_report=).
  obs::RunReporter* reporter = nullptr;
};

/// One loaded .tbl directory with its schema and evaluation indexes.
/// Concurrent *misses* on one database build their synopses in parallel:
/// the evaluator's DatabaseIndexCache finds or builds an index under its
/// own leaf lock and evaluates unlocked, and the first miss builds the
/// database's block index under the leaf lock inside
/// Database::block_index. Every cached result for this database shares
/// that index and keeps it alive past eviction.
struct LoadedDatabase {
  Schema schema;
  Database db;
  DatabaseIndexCache index_cache;

  // The schema must be complete before the Database is constructed (the
  // Database sizes its relation store from it), hence by-value injection
  // rather than assign-after-construct.
  explicit LoadedDatabase(Schema s)
      : schema(std::move(s)), db(&schema), index_cache(&db) {}
};

/// Executes query requests. Thread-safe: any number of server workers
/// may call ExecuteQuery concurrently.
class CqaEngine {
 public:
  explicit CqaEngine(const EngineOptions& options);

  /// Runs one op == "query" request to completion under `deadline` and
  /// returns the full response (ok or error). The caller creates the
  /// deadline (normally via MakeDeadline) when the request is *received*,
  /// so queue wait and preprocessing count against the budget. Never
  /// throws.
  ///
  /// `parent_span` hangs the engine's phase spans (serve.cache,
  /// serve.preprocess, serve.sample, serve.encode) off the server's
  /// per-request root span; 0 records them as roots. Ok responses carry
  /// the cache/preprocess/sample/encode slots of response.timing filled
  /// (the server adds queue_wait and total).
  Response ExecuteQuery(const Request& request, const Deadline& deadline,
                        uint64_t parent_span = 0);

  SynopsisCache& synopsis_cache() { return synopsis_cache_; }
  const SynopsisCache& synopsis_cache() const { return synopsis_cache_; }

  /// Maps the request's deadline onto the engine's default: the
  /// per-request value wins when positive, otherwise the configured
  /// default, otherwise no limit.
  Deadline MakeDeadline(const Request& request) const;

 private:
  /// Returns the cached database for (schema, canonical path), loading it
  /// on a miss. nullptr with *code/*error set on failure.
  std::shared_ptr<LoadedDatabase> GetDatabase(const std::string& schema,
                                              const std::string& data_path,
                                              ErrorCode* code,
                                              std::string* error)
      CQA_EXCLUDES(db_mu_);

  const EngineOptions options_;
  SynopsisCache synopsis_cache_;

  mutable Mutex db_mu_;
  // Tiny LRU of loaded databases, most recent at the front.
  std::list<std::pair<std::string, std::shared_ptr<LoadedDatabase>>>
      db_cache_ CQA_GUARDED_BY(db_mu_);
};

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_ENGINE_H_
