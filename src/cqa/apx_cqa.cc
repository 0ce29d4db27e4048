#include "cqa/apx_cqa.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cqa {

namespace {

/// Accumulates one synopsis run into the per-scheme-run totals,
/// summing the per-worker counts element-wise.
void Accumulate(CqaRunResult* result, const ApxResult& apx) {
  result->total_samples += apx.samples;
  result->estimator_samples += apx.estimator_samples;
  result->main_samples += apx.main_samples;
  result->estimator_seconds += apx.estimator_seconds;
  result->main_seconds += apx.main_seconds;
  if (apx.per_thread_samples.size() > result->per_thread_samples.size()) {
    result->per_thread_samples.resize(apx.per_thread_samples.size(), 0);
  }
  for (size_t t = 0; t < apx.per_thread_samples.size(); ++t) {
    result->per_thread_samples[t] += apx.per_thread_samples[t];
  }
}

}  // namespace

CqaRunResult ApxCqaOnSynopses(const PreprocessResult& preprocessed,
                              SchemeKind scheme, const ApxParams& params,
                              Rng& rng, const Deadline& deadline) {
  CqaRunResult result;
  result.preprocess_seconds = preprocessed.stats().seconds;
  std::unique_ptr<ApxRelativeFreqScheme> apx =
      ApxRelativeFreqScheme::Create(scheme);
  obs::TraceSpan span("apx_cqa.scheme_phase");
  Stopwatch watch;
  const std::vector<AnswerSynopsis>& answers = preprocessed.answers();

  // One outcome per answer; an answer left empty never ran. With threads
  // and answers to spare, whole answer runs spread over the persistent
  // pool, each single-threaded on a stream forked up front (answers are
  // independent, so no hot-path synchronization). Otherwise the answers
  // run in order on `rng`, each scheme run getting all the threads, and
  // the first timeout ends the phase.
  std::vector<std::optional<ApxResult>> outcomes(answers.size());
  const size_t width =
      answers.size() > 1 ? std::min(params.num_threads, answers.size()) : 1;
  if (width > 1) {
    ApxParams inner = params;
    inner.num_threads = 1;
    ThreadPool& pool = ThreadPool::Shared();
    size_t spawned = pool.EnsureWorkers(width - 1);
    CQA_OBS_COUNT_N("apx_cqa.workers_launched", spawned);
    if (spawned == 0) CQA_OBS_COUNT("apx_cqa.pool_reuses");
    std::vector<uint64_t> seeds(answers.size());
    for (uint64_t& seed : seeds) seed = rng.ForkSeed();
    pool.Run(answers.size(), [&](size_t idx) {
      if (deadline.Expired()) return;
      Rng answer_rng(seeds[idx]);
      outcomes[idx] =
          apx->Run(answers[idx].synopsis, inner, answer_rng, deadline);
    });
  } else {
    for (size_t idx = 0; idx < answers.size() && !deadline.Expired(); ++idx) {
      outcomes[idx] = apx->Run(answers[idx].synopsis, params, rng, deadline);
      if (outcomes[idx]->timed_out) break;
    }
  }

  // Fold in answer order: the first answer that timed out is accumulated
  // and every later one is dropped, as is everything from the first
  // answer that never ran.
  for (size_t idx = 0; idx < answers.size(); ++idx) {
    if (!outcomes[idx]) {
      result.timed_out = true;
      break;
    }
    ApxResult& apx_result = *outcomes[idx];
    // A pooled answer ran on one thread; attribute its count to a worker
    // lane (answers round-robin over the pool width) so the aggregated
    // per_thread_samples still reports the parallel split.
    if (width > 1 && !apx_result.per_thread_samples.empty()) {
      std::vector<size_t> lanes(width, 0);
      for (size_t s : apx_result.per_thread_samples) lanes[idx % width] += s;
      apx_result.per_thread_samples = std::move(lanes);
    }
    Accumulate(&result, apx_result);
    for (obs::ConvergenceSeries& series : apx_result.convergence) {
      result.convergence.push_back(std::move(series));
    }
    apx_result.convergence.clear();
    if (apx_result.timed_out) {
      result.timed_out = true;
      break;
    }
    result.answers.push_back(CqaAnswer{answers[idx].answer,
                                       apx_result.estimate,
                                       std::move(apx_result)});
  }
  result.scheme_seconds = watch.ElapsedSeconds();
  return result;
}

CqaRunResult ApxCqa(const Database& db, const ConjunctiveQuery& q,
                    SchemeKind scheme, const ApxParams& params, Rng& rng,
                    const Deadline& deadline) {
  PreprocessResult preprocessed = BuildSynopses(db, q);
  return ApxCqaOnSynopses(preprocessed, scheme, params, rng, deadline);
}

obs::RunRecord MakeRunRecord(const CqaRunResult& run, SchemeKind scheme,
                             const obs::RunContext& context,
                             double total_seconds) {
  obs::RunRecord record;
  record.scenario = context.scenario;
  record.x_label = context.x_label;
  record.x = context.x;
  record.scheme = SchemeKindName(scheme);
  record.num_answers = run.answers.size();
  double frequency_sum = 0.0;
  for (const CqaAnswer& a : run.answers) frequency_sum += a.frequency;
  if (!run.answers.empty()) {
    record.estimate = frequency_sum / static_cast<double>(run.answers.size());
  }
  record.estimator_samples = run.estimator_samples;
  record.main_samples = run.main_samples;
  record.total_samples = run.total_samples;
  record.estimator_seconds = run.estimator_seconds;
  record.main_seconds = run.main_seconds;
  record.total_seconds = total_seconds;
  record.preprocess_seconds = run.preprocess_seconds;
  record.timed_out = run.timed_out;
  record.per_thread_samples = run.per_thread_samples;
  record.convergence = obs::Summarize(run.convergence);
  return record;
}

}  // namespace cqa
