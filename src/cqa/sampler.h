// The Sampler interface: an r-good randomized procedure Sample((H, B))
// in [0, 1], drawn in batches through one virtual call. Draw state is
// per-instance scratch -- samplers are not thread-safe; every worker owns
// its own instance over the shared immutable Synopsis.
#ifndef CQABENCH_CQA_SAMPLER_H_
#define CQABENCH_CQA_SAMPLER_H_

#include <cstddef>

#include "common/rng.h"

namespace cqa {

/// A randomized procedure Sample((H, B)) producing numbers in [0, 1]
/// (§4.2). Implementations are constructed over a fixed Synopsis and are
/// `r`-good: E[Draw] = R(H, B) · GoodnessFactor(), with GoodnessFactor
/// computable in polynomial time. A scheme recovers the relative frequency
/// as (Monte Carlo mean) / GoodnessFactor().
///
/// Drawing may use internal scratch buffers and is not thread-safe; each
/// worker should own its sampler.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Draws n samples in [0, 1] into out[0, n): the one virtual draw. A
  /// batch consumes the RNG stream exactly as n successive single draws
  /// would, so runs are seed-for-seed reproducible at every batch size.
  /// Virtual dispatch and obs accounting are paid once per batch; the
  /// estimator loops call it with blocks of ~256.
  virtual void DrawBatch(Rng& rng, size_t n, double* out) = 0;

  /// Draws one sample in [0, 1]: a batch of one.
  double Draw(Rng& rng) {
    double v;
    DrawBatch(rng, 1, &v);
    return v;
  }

  /// The factor r such that E[Draw] = R(H, B) · r.
  virtual double GoodnessFactor() const = 0;

  virtual const char* name() const = 0;
};

/// The loop of a DrawBatch override: out[k] = draw() for k in [0, n). A
/// sampler that picks its draw path at construction calls it once per
/// batch with that path's draw.
template <typename DrawFn>
void FillBatch(size_t n, double* out, DrawFn&& draw) {
  for (size_t k = 0; k < n; ++k) out[k] = draw();
}

}  // namespace cqa

#endif  // CQABENCH_CQA_SAMPLER_H_
