#include "cqa/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "cqa/conflict_worlds.h"

namespace cqa::audit {

namespace {

bool Fail(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
}

std::string At(const char* what, size_t index) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %zu", what, index);
  return buf;
}

}  // namespace

bool CheckSynopsis(const Synopsis& synopsis, std::string* why) {
  const std::span<const Synopsis::Block> blocks = synopsis.blocks();
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].size < 1) {
      return Fail(why, At("empty block", b));
    }
  }
  const size_t n = synopsis.NumImages();
  size_t packed = 0;  // Images tile the packed fact array in order.
  for (size_t i = 0; i < n; ++i) {
    const std::span<const Synopsis::ImageFact> facts = synopsis.image(i);
    if (facts.empty()) {
      return Fail(why, At("empty image", i));
    }
    if (facts.data() != synopsis.facts().data() + packed) {
      return Fail(why, At("image off the packed fact array, image", i));
    }
    packed += facts.size();
    for (size_t j = 0; j < facts.size(); ++j) {
      if (facts[j].block >= blocks.size()) {
        return Fail(why, At("image with out-of-range block, image", i));
      }
      if (facts[j].tid >= blocks[facts[j].block].size) {
        return Fail(why, At("image with out-of-range tid, image", i));
      }
      if (j > 0 && facts[j - 1].block >= facts[j].block) {
        // Equal blocks would make the image inconsistent; descending
        // blocks violate the sorted encoding.
        return Fail(why, At("image not strictly sorted by block, image", i));
      }
    }
  }
  if (packed != synopsis.facts().size()) {
    return Fail(why, "packed fact array holds facts of no image");
  }
  // H is a set: sorted by content, equal images would be neighbours.
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  auto less = [&](uint32_t a, uint32_t b) {
    const std::span<const Synopsis::ImageFact> x = synopsis.image(a);
    const std::span<const Synopsis::ImageFact> y = synopsis.image(b);
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  };
  std::sort(order.begin(), order.end(), less);
  for (size_t k = 1; k < n; ++k) {
    if (!less(order[k - 1], order[k])) {
      return Fail(why,
                  At("duplicate image", std::max(order[k - 1], order[k])));
    }
  }
  const std::vector<double> weights = synopsis.ImageWeights();
  if (weights.size() != n) {
    return Fail(why, "weight count does not match image count");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] > 0.0) || weights[i] > 1.0) {
      return Fail(why, At("image weight outside (0, 1], image", i));
    }
  }
  return true;
}

bool CheckSymbolicSpace(const SymbolicSpace& space, std::string* why) {
  const Synopsis& synopsis = space.synopsis();
  if (!CheckSynopsis(synopsis, why)) return false;
  const std::vector<double> expected = synopsis.ImageWeights();
  const std::vector<double>& actual = space.weights();
  if (actual.size() != expected.size()) {
    return Fail(why, "space weights diverge from synopsis image count");
  }
  double sum = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i]) {
      return Fail(why, At("space weight diverges from synopsis, image", i));
    }
    sum += actual[i];
  }
  if (space.total_weight() != sum) {
    return Fail(why, "total_weight is not the sum of the image weights");
  }
  if (!(space.total_weight() > 0.0)) {
    return Fail(why, "total_weight must be positive");
  }
  return CheckAliasTable(space, why);
}

bool CheckAliasTable(const SymbolicSpace& space, std::string* why) {
  const std::vector<double>& weights = space.weights();
  const std::vector<double>& prob = space.alias_prob();
  const std::vector<uint32_t>& alias = space.alias();
  const size_t n = weights.size();
  if (prob.size() != n || alias.size() != n) {
    return Fail(why, "alias table size does not match image count");
  }
  std::vector<double> mass(n, 0.0);
  for (size_t k = 0; k < n; ++k) {
    // Vose leaves alias_prob exactly 1 for self-aliased leftovers; a hair
    // above 1 can only come from a construction bug, not FP noise.
    if (!(prob[k] >= 0.0) || prob[k] > 1.0) {
      return Fail(why, At("alias probability outside [0, 1], column", k));
    }
    if (alias[k] >= n) {
      return Fail(why, At("alias target out of range, column", k));
    }
    mass[k] += prob[k];
    mass[alias[k]] += 1.0 - prob[k];
  }
  const double scale = static_cast<double>(n) / space.total_weight();
  for (size_t i = 0; i < n; ++i) {
    const double expected = weights[i] * scale;
    if (std::abs(mass[i] - expected) > 1e-9 * (1.0 + expected)) {
      return Fail(why, At("alias mass diverges from weight, image", i));
    }
  }
  // The integer coin thresholds the draw compares against must be the
  // exact rescaling of the float columns.
  const std::vector<uint64_t>& cut = space.alias_cut();
  if (cut.size() != n) {
    return Fail(why, "alias cutoff table size does not match image count");
  }
  for (size_t k = 0; k < n; ++k) {
    const uint64_t expected =
        prob[k] >= 1.0 ? ~0ull : static_cast<uint64_t>(prob[k] * 0x1p64);
    if (cut[k] != expected) {
      return Fail(why, At("alias cutoff diverges from probability, column",
                          k));
    }
  }
  return true;
}

bool CheckBatchDraws(const Sampler& sampler, const double* values, size_t n,
                     std::string* why) {
  for (size_t k = 0; k < n; ++k) {
    if (!(values[k] >= 0.0) || values[k] > 1.0) {
      return Fail(why, std::string(sampler.name()) + ": " +
                           At("batch draw outside [0, 1], index", k));
    }
  }
  return true;
}

bool CheckSampledElement(const SymbolicSpace& space, size_t image_index,
                         const Synopsis::Choice& choice, std::string* why) {
  const Synopsis& synopsis = space.synopsis();
  if (image_index >= synopsis.NumImages()) {
    return Fail(why, At("sampled image index out of range:", image_index));
  }
  const std::span<const Synopsis::Block> blocks = synopsis.blocks();
  if (choice.size() != blocks.size()) {
    return Fail(why, "choice size does not match block count");
  }
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (choice[b] >= blocks[b].size) {
      return Fail(why, At("choice tid out of range in block", b));
    }
  }
  if (!synopsis.ImageContainedIn(image_index, choice)) {
    // (i, I) ∈ S• requires H_i ⊆ I: SampleElement must pin the image's
    // facts after the uniform block draw.
    return Fail(why, At("sampled image not contained in the drawn "
                        "database, image",
                        image_index));
  }
  return true;
}

bool CheckImageInPrefix(const Synopsis& synopsis, size_t image_index,
                        const Synopsis::Choice& choice, size_t prefix_blocks,
                        std::string* why) {
  if (image_index >= synopsis.NumImages()) {
    return Fail(why, At("accepted image index out of range:", image_index));
  }
  if (prefix_blocks > choice.size()) {
    return Fail(why, "prefix extends past the drawn choice");
  }
  for (const Synopsis::ImageFact& f : synopsis.image(image_index)) {
    if (f.block >= prefix_blocks) {
      return Fail(why, At("accepted image has an undrawn block, image",
                          image_index));
    }
    if (choice[f.block] != f.tid) {
      return Fail(why, At("accepted image mismatches the drawn choice, "
                          "image",
                          image_index));
    }
  }
  return true;
}

bool CheckNaturalDraw(const Synopsis& synopsis, const Synopsis::Choice& choice,
                      double value, std::string* why) {
  const std::span<const Synopsis::Block> blocks = synopsis.blocks();
  if (choice.size() != blocks.size()) {
    return Fail(why, "choice size does not match block count");
  }
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (choice[b] >= blocks[b].size) {
      return Fail(why, At("choice tid out of range in block", b));
    }
  }
  const double expected = synopsis.AnyImageContainedIn(choice) ? 1.0 : 0.0;
  if (value != expected) {
    return Fail(why, "natural draw disagrees with the naive containment "
                     "scan");
  }
  return true;
}

bool CheckWorldMask(const ConflictWorldTable& table, uint32_t world,
                    uint64_t mask, std::string* why) {
  const Synopsis& synopsis = table.synopsis();
  if (world >= table.num_worlds()) {
    return Fail(why, At("world out of range", world));
  }
  if ((mask & ConflictWorldTable::kFilled) == 0) {
    return Fail(why, At("world mask lacks the filled bit", world));
  }
  Synopsis::Choice choice;
  table.Decode(world, &choice);
  for (size_t i = 0; i < ConflictWorldTable::kMaxImages; ++i) {
    const bool set = (mask >> i) & 1;
    const bool contained =
        i < synopsis.NumImages() && synopsis.ImageContainedIn(i, choice);
    if (set != contained) {
      return Fail(why, At("world mask disagrees with the naive scan at image",
                          i));
    }
  }
  return true;
}

bool CheckWorldWitness(uint64_t mask, size_t image_index, std::string* why) {
  if ((mask & ConflictWorldTable::kFilled) == 0) {
    return Fail(why, "world mask lacks the filled bit");
  }
  if (image_index >= ConflictWorldTable::kMaxImages ||
      ((mask >> image_index) & 1) == 0) {
    return Fail(why, At("drawn world does not contain image", image_index));
  }
  return true;
}

bool CheckOptEstimateParams(double epsilon, double delta, std::string* why) {
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Fail(why, "epsilon must lie in (0, 1)");
  }
  if (!(delta > 0.0) || !(delta < 1.0)) {
    return Fail(why, "delta must lie in (0, 1)");
  }
  return true;
}

bool CheckOptEstimateResult(const OptEstimateResult& result, double epsilon,
                            std::string* why) {
  if (result.timed_out) return true;  // Fields are unusable by contract.
  if (!(result.mu_hat > 0.0) || result.mu_hat > 1.0) {
    return Fail(why, "mu_hat must lie in (0, 1] for [0, 1]-valued samplers");
  }
  if (result.rho_hat < epsilon * result.mu_hat) {
    return Fail(why, "rho_hat fell below the epsilon * mu_hat clamp");
  }
  if (result.num_iterations < 1) {
    return Fail(why, "a completed estimate must request >= 1 iteration");
  }
  if (result.samples_used < 1) {
    return Fail(why, "a completed estimate must have drawn samples");
  }
  return true;
}

bool CheckMonteCarloResult(const MonteCarloResult& result, std::string* why) {
  if (!result.per_thread_samples.empty()) {
    size_t total = 0;
    for (size_t s : result.per_thread_samples) total += s;
    if (total != result.main_samples) {
      return Fail(why, "per-thread sample counts do not sum to "
                       "main_samples");
    }
  }
  if (result.estimator_seconds < 0.0 || result.main_seconds < 0.0) {
    return Fail(why, "negative phase time");
  }
  if (!result.timed_out) {
    if (result.main_samples < 1) {
      return Fail(why, "a completed run must have main-loop samples");
    }
    if (!(result.estimate >= 0.0) || result.estimate > 1.0) {
      return Fail(why, "estimate outside [0, 1] for [0, 1]-valued "
                       "samplers");
    }
  }
  return true;
}

bool CheckCoverageResult(const CoverageResult& result, size_t budget,
                         std::string* why) {
  if (result.steps > budget) {
    return Fail(why, "coverage overran its deterministic step budget");
  }
  if (result.trials > result.steps) {
    return Fail(why, "more completed trials than steps");
  }
  if (!result.timed_out && result.normalized_estimate < 0.0) {
    return Fail(why, "negative coverage estimate");
  }
  return true;
}

}  // namespace cqa::audit
