// The four approximation schemes for RelativeFreq behind one interface:
// Natural, KL and KLM are one Monte Carlo runner over different samplers
// and conversion factors, Cover is the coverage algorithm. Plus the
// (eps, delta) accuracy parameters and scheme-name parsing shared by
// every binary.
#ifndef CQABENCH_CQA_SCHEMES_H_
#define CQABENCH_CQA_SCHEMES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/synopsis.h"
#include "obs/convergence.h"

namespace cqa {

/// The four approximation schemes for RelativeFreq compared by the paper.
enum class SchemeKind {
  kNatural,  // Algorithm 3: MonteCarlo[SampleNatural].
  kKl,       // Algorithm 4: MonteCarlo[SampleKL]   · |S•|/|db(B)|.
  kKlm,      // Algorithm 4: MonteCarlo[SampleKLM]  · |S•|/|db(B)|.
  kCover,    // Algorithm 5: SelfAdjustingCoverage  · 1/|db(B)|.
};

const char* SchemeKindName(SchemeKind kind);
std::optional<SchemeKind> ParseSchemeKind(const std::string& name);
const std::vector<SchemeKind>& AllSchemeKinds();

/// Accuracy parameters: relative error ε and failure probability δ. The
/// paper runs every experiment with ε = 0.1, δ = 0.25.
struct ApxParams {
  double epsilon = 0.1;
  double delta = 0.25;
  /// Worker threads for the Monte Carlo main loop (the "parallel sampling
  /// phase" the paper's appendix proposes as future work). 1 = the
  /// paper's serial algorithms; >1 splits the optimal N across threads
  /// with independent RNG streams (MonteCarloEstimate). Cover is
  /// inherently sequential and ignores this. ApxCqaOnSynopses spends the
  /// threads across answers instead when there are several.
  size_t num_threads = 1;
  /// When true the scheme attaches ConvergenceRecorders to its sampling
  /// phases and returns the recorded series in ApxResult::convergence.
  /// Checkpointing is O(log n) in the draw count; still, leave this off
  /// unless the telemetry is wanted. No-op under CQABENCH_NO_OBS.
  bool record_convergence = false;
};

/// Result of one ApxRelativeFreq invocation on a single synopsis.
struct ApxResult {
  /// The approximated relative frequency R(H, B); unusable if timed_out.
  double estimate = 0.0;
  /// Total samples drawn (estimator phases + main loop / coverage steps).
  size_t samples = 0;
  bool timed_out = false;
  /// Per-phase breakdown: OptEstimate samples/time vs main-loop
  /// samples/time (for Cover, everything is "main" — it has no estimator
  /// phase). samples == estimator_samples + main_samples.
  size_t estimator_samples = 0;
  size_t main_samples = 0;
  double estimator_seconds = 0.0;
  double main_seconds = 0.0;
  /// Main-loop samples per worker thread (size 1 for serial runs).
  std::vector<size_t> per_thread_samples;
  /// Convergence series recorded during the run (one per sampling phase;
  /// empty unless ApxParams::record_convergence was set).
  std::vector<obs::ConvergenceSeries> convergence;
};

/// A data-efficient randomized approximation scheme for RelativeFreq,
/// operating directly on synopses (§5: the synopsis is computed once by
/// the preprocessing step, not per scheme call).
class ApxRelativeFreqScheme {
 public:
  virtual ~ApxRelativeFreqScheme() = default;

  /// Approximates R(H, B) with relative error ε and confidence 1-δ.
  /// Returns 0 immediately for an empty synopsis (H = ∅ ⟺ R = 0,
  /// Lemma 4.1(4)). Respects the deadline best-effort: on expiry the
  /// result is flagged timed_out.
  virtual ApxResult Run(const Synopsis& synopsis, const ApxParams& params,
                        Rng& rng,
                        const Deadline& deadline = Deadline()) const = 0;

  virtual SchemeKind kind() const = 0;
  const char* name() const { return SchemeKindName(kind()); }

  static std::unique_ptr<ApxRelativeFreqScheme> Create(SchemeKind kind);
};

}  // namespace cqa

#endif  // CQABENCH_CQA_SCHEMES_H_
