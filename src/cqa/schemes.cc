#include "cqa/schemes.h"

#include "common/macros.h"
#include "cqa/coverage.h"
#include "cqa/kl_sampler.h"
#include "cqa/klm_sampler.h"
#include "cqa/indexed_natural_sampler.h"
#include "cqa/monte_carlo.h"
#include "cqa/symbolic_space.h"

namespace cqa {

const char* SchemeKindName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNatural:
      return "Natural";
    case SchemeKind::kKl:
      return "KL";
    case SchemeKind::kKlm:
      return "KLM";
    case SchemeKind::kCover:
      return "Cover";
  }
  return "?";
}

std::optional<SchemeKind> ParseSchemeKind(const std::string& name) {
  for (SchemeKind kind : AllSchemeKinds()) {
    if (name == SchemeKindName(kind)) return kind;
  }
  return std::nullopt;
}

const std::vector<SchemeKind>& AllSchemeKinds() {
  static const std::vector<SchemeKind>* kAll = new std::vector<SchemeKind>{
      SchemeKind::kNatural, SchemeKind::kKl, SchemeKind::kKlm,
      SchemeKind::kCover};
  return *kAll;
}

namespace {

/// Optional pair of per-phase convergence recorders for a scheme run,
/// constructed only when ApxParams::record_convergence asks for them.
struct SchemeRecorders {
  explicit SchemeRecorders(const ApxParams& params) {
    if (params.record_convergence) {
      estimator = std::make_unique<obs::ConvergenceRecorder>(
          "opt_estimate", params.epsilon, params.delta);
      main = std::make_unique<obs::ConvergenceRecorder>(
          "main_loop", params.epsilon, params.delta);
    }
  }

  /// Moves the non-empty recorded series into the result.
  void Collect(ApxResult* result) {
    for (obs::ConvergenceRecorder* rec : {estimator.get(), main.get()}) {
      if (rec == nullptr) continue;
      obs::ConvergenceSeries series = rec->TakeSeries();
      if (!series.checkpoints.empty()) {
        result->convergence.push_back(std::move(series));
      }
    }
  }

  std::unique_ptr<obs::ConvergenceRecorder> estimator;
  std::unique_ptr<obs::ConvergenceRecorder> main;
};

/// The Monte Carlo schemes' one runner: MonteCarlo over the factory's
/// samplers, the mean converted back to R(H, B) by `factor` — 1 for
/// Natural, |S•|/|db(B)| for KL and KLM.
ApxResult RunMonteCarlo(const SamplerFactory& factory, double factor,
                        const ApxParams& params, Rng& rng,
                        const Deadline& deadline) {
  SchemeRecorders recorders(params);
  MonteCarloResult mc = MonteCarloEstimate(
      factory, params.num_threads, params.epsilon, params.delta, rng,
      deadline, recorders.estimator.get(), recorders.main.get());
  ApxResult result;
  result.estimate = mc.estimate * factor;
  result.samples = mc.estimator_samples + mc.main_samples;
  result.timed_out = mc.timed_out;
  result.estimator_samples = mc.estimator_samples;
  result.main_samples = mc.main_samples;
  result.estimator_seconds = mc.estimator_seconds;
  result.main_seconds = mc.main_seconds;
  result.per_thread_samples = std::move(mc.per_thread_samples);
  recorders.Collect(&result);
  return result;
}

/// Algorithm 3 (Natural): MonteCarlo over the natural space; 1-good.
/// Runs on the inverted-index sampler — same distribution as the plain
/// scan, but per-draw cost proportional to the images actually touched.
class NaturalScheme : public ApxRelativeFreqScheme {
 public:
  ApxResult Run(const Synopsis& synopsis, const ApxParams& params, Rng& rng,
                const Deadline& deadline) const override {
    if (synopsis.Empty()) return ApxResult();
    return RunMonteCarlo(
        [&] { return std::make_unique<IndexedNaturalSampler>(&synopsis); },
        1.0, params, rng, deadline);
  }
  SchemeKind kind() const override { return SchemeKind::kNatural; }
};

/// Algorithm 4 (KL / KLM): MonteCarlo over the symbolic space, converted
/// back by the factor |S•|/|db(B)|.
template <typename SamplerT, SchemeKind kKind>
class SymbolicScheme : public ApxRelativeFreqScheme {
 public:
  ApxResult Run(const Synopsis& synopsis, const ApxParams& params, Rng& rng,
                const Deadline& deadline) const override {
    if (synopsis.Empty()) return ApxResult();
    SymbolicSpace space(&synopsis);
    return RunMonteCarlo([&] { return std::make_unique<SamplerT>(&space); },
                         space.total_weight(), params, rng, deadline);
  }
  SchemeKind kind() const override { return kKind; }
};

using KlScheme = SymbolicScheme<KlSampler, SchemeKind::kKl>;
using KlmScheme = SymbolicScheme<KlmSampler, SchemeKind::kKlm>;

/// Algorithm 5 (Cover): self-adjusting coverage over the symbolic space.
class CoverScheme : public ApxRelativeFreqScheme {
 public:
  ApxResult Run(const Synopsis& synopsis, const ApxParams& params, Rng& rng,
                const Deadline& deadline) const override {
    ApxResult result;
    if (synopsis.Empty()) return result;
    SymbolicSpace space(&synopsis);
    std::unique_ptr<obs::ConvergenceRecorder> recorder;
    if (params.record_convergence) {
      recorder = std::make_unique<obs::ConvergenceRecorder>(
          "coverage.trials", params.epsilon, params.delta);
    }
    Stopwatch watch;
    CoverageResult cov = SelfAdjustingCoverage(
        space, params.epsilon, params.delta, rng, deadline, recorder.get());
    result.samples = cov.steps;
    result.timed_out = cov.timed_out;
    result.estimate = cov.normalized_estimate * space.total_weight();
    // Cover has no estimator phase: all steps are main-loop work, on one
    // thread (the algorithm is inherently sequential).
    result.main_samples = cov.steps;
    result.main_seconds = watch.ElapsedSeconds();
    result.per_thread_samples = {cov.steps};
    if (recorder != nullptr) {
      obs::ConvergenceSeries series = recorder->TakeSeries();
      if (!series.checkpoints.empty()) {
        result.convergence.push_back(std::move(series));
      }
    }
    return result;
  }
  SchemeKind kind() const override { return SchemeKind::kCover; }
};

}  // namespace

std::unique_ptr<ApxRelativeFreqScheme> ApxRelativeFreqScheme::Create(
    SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNatural:
      return std::make_unique<NaturalScheme>();
    case SchemeKind::kKl:
      return std::make_unique<KlScheme>();
    case SchemeKind::kKlm:
      return std::make_unique<KlmScheme>();
    case SchemeKind::kCover:
      return std::make_unique<CoverScheme>();
  }
  CQA_CHECK_MSG(false, "unknown scheme kind");
  return nullptr;
}

}  // namespace cqa
