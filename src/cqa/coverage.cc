#include "cqa/coverage.h"

#include <cmath>

#include "common/macros.h"
#include "cqa/conflict_worlds.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cqa {

namespace {

constexpr size_t kDeadlineStride = 64;

/// The coverage loop over `trial(rng)`, which draws one outer sample
/// (i, I) uniform in S• and returns the inner step's test: a callable
/// telling whether image j witnesses I.
template <typename Trial>
CoverageResult RunCoverage(size_t h, size_t budget, Rng& rng,
                           const Deadline& deadline,
                           obs::ConvergenceRecorder* recorder,
                           Trial&& trial) {
  CoverageResult result;
  size_t steps = 0;
  size_t total = 0;
  size_t trials = 0;
  while (true) {
    // Outer sample: (i, I) uniform in S•. The inner steps need only I,
    // exactly as in Algorithm 6.
    const auto witnesses = trial(rng);
    size_t trial_start = steps;
    while (true) {
      // `steps` counts only the inner draws actually made.
      if (steps == budget) goto finish;
      if (steps % kDeadlineStride == 0 && deadline.Expired()) {
        result.timed_out = true;
        goto finish;
      }
      // Inner sample: j uniform in [|H|]; stop when H_j witnesses I.
      ++steps;
      size_t j = rng.UniformIndex(h);
      if (witnesses(j)) break;
    }
    total = steps;
    ++trials;
    if (recorder != nullptr) {
      // The per-trial observation is (search steps)/|H|, whose running
      // mean is exactly the normalized coverage estimate below.
      recorder->Observe(static_cast<double>(steps - trial_start) /
                        static_cast<double>(h));
    }
  }
finish:
  result.steps = steps;
  result.trials = trials;
  // total/trials estimates |H| · |∪I_i| / |S•| (the expected number of
  // j-draws until a hit). trials == 0 can only occur if the very first
  // witness search exhausts the budget — vanishingly unlikely since the
  // budget is Ω(|H| log(1/δ)/ε²) while a search needs |H| draws in
  // expectation; report 0 coverage in that case.
  if (trials > 0) {
    result.normalized_estimate = static_cast<double>(total) /
                                 (static_cast<double>(h) *
                                  static_cast<double>(trials));
  }
  return result;
}

}  // namespace

CoverageResult SelfAdjustingCoverage(const SymbolicSpace& space,
                                     double epsilon, double delta, Rng& rng,
                                     const Deadline& deadline,
                                     obs::ConvergenceRecorder* recorder) {
  CQA_CHECK(epsilon > 0.0 && epsilon < 1.0);
  CQA_CHECK(delta > 0.0 && delta < 1.0);
  const size_t h = space.synopsis().NumImages();
  CQA_CHECK(h >= 1);

  const double n_exact = 8.0 * (1.0 + epsilon) * static_cast<double>(h) *
                         std::log(3.0 / delta) /
                         ((1.0 - epsilon * epsilon / 8.0) * epsilon * epsilon);
  const size_t budget = static_cast<size_t>(std::ceil(n_exact));

  obs::TraceSpan span("coverage.run");
  CQA_OBS_COUNT("coverage.runs");
  CoverageResult result;
  if (ConflictWorldTable::Eligible(space.synopsis())) {
    // The world's mask answers every inner step of the trial.
    ConflictWorldTable table(&space.synopsis());
    result = RunCoverage(h, budget, rng, deadline, recorder, [&](Rng& r) {
      const uint64_t mask = table.DrawSymbolic(space, r).mask;
      return [mask](size_t j) { return ((mask >> j) & 1) != 0; };
    });
  } else {
    Synopsis::Choice choice;
    result = RunCoverage(h, budget, rng, deadline, recorder, [&](Rng& r) {
      space.SampleElement(r, &choice);
      return [&](size_t j) { return space.ImageContainedIn(j, choice); };
    });
  }
  // Bulk adds at exit: the inner loop itself stays instrumentation-free.
  CQA_OBS_COUNT_N("coverage.steps", result.steps);
  CQA_OBS_COUNT_N("coverage.self_adjust_trials", result.trials);
  if (result.timed_out) CQA_OBS_COUNT("coverage.timeouts");
  CQA_AUDIT(audit::CheckCoverageResult, result, budget);
  return result;
}

}  // namespace cqa
