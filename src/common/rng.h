#ifndef CQABENCH_COMMON_RNG_H_
#define CQABENCH_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cqa {

/// The SplitMix64 output/finalizer function of Steele, Lea and Flood
/// ("Fast splittable pseudorandom number generators", OOPSLA 2014). Used
/// to derive decorrelated child-stream seeds from a parent generator:
/// even sequential inputs (0, 1, 2, ...) map to statistically independent
/// outputs, so seeding one engine per worker from it avoids the
/// correlated-lowbits trap of seeding from raw engine draws. Also the
/// mixer of the synopsis encoder's hash tables, which call it per fact,
/// hence inline.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// MT19937-64, the 64-bit Mersenne Twister of Matsumoto and Nishimura
/// (the generator the paper cites, [23]). It emits exactly the words of
/// `std::mt19937_64` for every seed: the same seeding recurrence, the same
/// 312-word state and the same tempering. What differs is the refill:
/// libstdc++ 12 computes the twist's `a` term as `(y & 1) ? a : 0`, which
/// compiles to a conditional jump on a random bit, mispredicted half the
/// time; here it is the mask `(0 - (y & 1)) & a`. The refill runs once
/// per 312 words and lives out of line; a draw is inline.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;

  /// Seeds the state as `std::mt19937_64(seed)` does.
  explicit MersenneTwister64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kStateSize) [[unlikely]] Refill();
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Advances the stream by n words, as n calls would.
  void discard(uint64_t n);

  friend bool operator==(const MersenneTwister64& a,
                         const MersenneTwister64& b);

 private:
  static constexpr size_t kStateSize = 312;

  /// Twists all 312 words of the state and rewinds `next_` to 0.
  void Refill();

  uint64_t state_[kStateSize];
  size_t next_;
};

/// Pseudo-random source used by every randomized component of the library.
///
/// Draws from `MersenneTwister64` (above), the 64-bit Mersenne Twister the
/// paper cites. Its stream is word for word that of `std::mt19937_64` at
/// the same seed, so seeded runs, generated instances and pinned test
/// values recorded with the standard engine replay unchanged. All
/// algorithms take an `Rng&` so experiments are reproducible from a single
/// seed and tests can pin the stream.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5DEECE66DULL) : engine_(seed) {}

  /// Uniform integer in the closed interval [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n);

  /// Uniform real in [0, 1).
  double UniformReal();

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Samples an index i with probability weights[i] / sum(weights).
  /// Requires a non-empty vector with non-negative entries and positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[UniformIndex(i)]);
    }
  }

  /// Draws k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives a seed for an independent child stream (one worker thread,
  /// one batch shard). Deterministic given the parent's seed and the
  /// sequence of calls: the k-th fork always yields the same seed. The
  /// fork counter feeds SplitMix64 together with an engine draw, so
  /// sibling streams are decorrelated even when the engine output has
  /// structure, and two parents with different seeds never collide.
  uint64_t ForkSeed();

  MersenneTwister64& engine() { return engine_; }

 private:
  /// Unbiased draw in [0, n) via Lemire's multiply-shift rejection —
  /// the shared fast path under UniformInt and UniformIndex.
  uint64_t BoundedDraw(uint64_t n);

  MersenneTwister64 engine_;
  uint64_t forks_ = 0;
};

}  // namespace cqa

#endif  // CQABENCH_COMMON_RNG_H_
