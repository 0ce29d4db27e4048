#include "common/rng.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"

namespace cqa {

namespace {

constexpr size_t kMiddle = 156;  // MT19937-64's middle-word offset m.
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper 33 bits of `hi` joined to the lower 31 of
/// `lo`, shifted right, with `a` folded in by the low bit as a mask rather
/// than a branch.
inline uint64_t Twist(uint64_t far, uint64_t hi, uint64_t lo) {
  const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

MersenneTwister64::MersenneTwister64(uint64_t seed) : next_(kStateSize) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void MersenneTwister64::Refill() {
  constexpr size_t n = kStateSize;
  size_t k = 0;
  for (; k < n - kMiddle; ++k) {
    state_[k] = Twist(state_[k + kMiddle], state_[k], state_[k + 1]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = Twist(state_[k + kMiddle - n], state_[k], state_[k + 1]);
  }
  state_[n - 1] = Twist(state_[kMiddle - 1], state_[n - 1], state_[0]);
  next_ = 0;
}

void MersenneTwister64::discard(uint64_t n) {
  while (n > kStateSize - next_) {
    n -= kStateSize - next_;
    Refill();
  }
  next_ += n;
}

bool operator==(const MersenneTwister64& a, const MersenneTwister64& b) {
  return a.next_ == b.next_ &&
         std::equal(a.state_, a.state_ + MersenneTwister64::kStateSize,
                    b.state_);
}

uint64_t Rng::ForkSeed() {
  // Mixing the fork ordinal in before the engine draw keeps sibling seeds
  // distinct even if the engine ever produced a repeated value.
  return SplitMix64(engine_() + SplitMix64(++forks_));
}

uint64_t Rng::BoundedDraw(uint64_t n) {
  // Lemire's nearly-divisionless unbiased bounded draw ("Fast random
  // integer generation in an interval", TOMACS 2019): map one 64-bit
  // engine word into [0, n) with a widening multiply, rejecting only the
  // sliver of low products that would bias small residues. The rejection
  // branch — the only place that divides — is taken with probability
  // n / 2^64, so a draw is one engine word plus one multiply in practice.
  // The samplers spend one bounded draw per synopsis block per sample,
  // which made the per-call division of uniform_int_distribution the
  // single hottest instruction in the KL/KLM main loops.
  uint64_t x = engine_();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    const uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    while (low < threshold) {
      x = engine_();
      m = static_cast<unsigned __int128>(x) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CQA_CHECK(lo <= hi);
  // Width computed in uint64_t so lo = INT64_MIN, hi = INT64_MAX wraps to
  // 0, which means "full range": any engine word is already uniform.
  const uint64_t width =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (width == 0) return static_cast<int64_t>(engine_());
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + BoundedDraw(width));
}

size_t Rng::UniformIndex(size_t n) {
  CQA_CHECK(n > 0);
  return static_cast<size_t>(BoundedDraw(n));
}

double Rng::UniformReal() {
  // The top 53 engine bits scaled by 2^-53: exactly uniform over the
  // dyadic grid in [0, 1), one engine word per draw.
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformReal() < p;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  CQA_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CQA_CHECK(w >= 0.0);
    total += w;
  }
  CQA_CHECK(total > 0.0);
  double r = UniformReal() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Floating-point slack: return the last index with positive weight.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  CQA_CHECK(k <= n);
  // Floyd's algorithm: O(k) expected insertions, no O(n) scratch space.
  std::unordered_set<size_t> chosen;
  std::vector<size_t> result;
  result.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = UniformIndex(j + 1);
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  Shuffle(result);
  return result;
}

}  // namespace cqa
