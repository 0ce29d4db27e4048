#include "cqa/exact.h"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "common/macros.h"
#include "query/evaluator.h"
#include "storage/block_index.h"
#include "storage/repairs.h"

namespace cqa {

std::optional<double> ExactRatioByEnumeration(const Synopsis& synopsis,
                                              size_t max_choices) {
  if (synopsis.Empty()) return 0.0;
  double log_choices = synopsis.LogDbSize();
  if (log_choices > std::log10(static_cast<double>(max_choices))) {
    return std::nullopt;
  }
  Synopsis::Choice choice(synopsis.NumBlocks(), 0);
  size_t hits = 0;
  size_t total = 0;
  while (true) {
    ++total;
    if (synopsis.AnyImageContainedIn(choice)) ++hits;
    // Odometer over block choices.
    size_t b = 0;
    for (; b < choice.size(); ++b) {
      if (++choice[b] < synopsis.blocks()[b].size) break;
      choice[b] = 0;
    }
    if (b == choice.size()) break;
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

std::optional<double> ExactRatioInclusionExclusion(const Synopsis& synopsis,
                                                   size_t max_images) {
  if (synopsis.Empty()) return 0.0;
  size_t n = synopsis.NumImages();
  if (n > max_images || n >= 63) return std::nullopt;

  // union_tid[b]: tid forced on block b by the current subset union, or
  // kUnset. Rebuilt per subset; subsets are small in oracle use.
  constexpr uint32_t kUnset = ~0u;
  std::vector<uint32_t> union_tid(synopsis.NumBlocks(), kUnset);
  std::vector<size_t> touched;

  double total = 0.0;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    touched.clear();
    bool consistent = true;
    int members = 0;
    for (size_t i = 0; i < n && consistent; ++i) {
      if (!(mask & (uint64_t{1} << i))) continue;
      ++members;
      for (const Synopsis::ImageFact& f : synopsis.image(i)) {
        if (union_tid[f.block] == kUnset) {
          union_tid[f.block] = f.tid;
          touched.push_back(f.block);
        } else if (union_tid[f.block] != f.tid) {
          consistent = false;
          break;
        }
      }
    }
    if (consistent) {
      double term = 1.0;
      for (size_t b : touched) {
        term /= static_cast<double>(synopsis.blocks()[b].size);
      }
      total += (members % 2 == 1) ? term : -term;
    }
    for (size_t b : touched) union_tid[b] = kUnset;
  }
  return total;
}

std::optional<double> ExactRatioDecomposed(const Synopsis& synopsis,
                                           size_t max_component_images) {
  if (synopsis.Empty()) return 0.0;
  const size_t n = synopsis.NumImages();

  // Union-find over images; two images join when they touch a common
  // block.
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<size_t> block_owner(synopsis.NumBlocks(), n);
  for (size_t i = 0; i < n; ++i) {
    for (const Synopsis::ImageFact& f : synopsis.image(i)) {
      if (block_owner[f.block] == n) {
        block_owner[f.block] = i;
      } else {
        parent[find(block_owner[f.block])] = find(i);
      }
    }
  }

  // Build one sub-synopsis per component and combine independently.
  std::unordered_map<size_t, std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) components[find(i)].push_back(i);
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> local(synopsis.NumBlocks(), kUnmapped);
  std::vector<Synopsis::ImageFact> facts;
  double prob_none = 1.0;
  for (const auto& [root, members] : components) {
    if (members.size() > max_component_images) return std::nullopt;
    SynopsisBuilder builder;
    for (size_t i : members) {
      facts.clear();
      for (const Synopsis::ImageFact& f : synopsis.image(i)) {
        if (local[f.block] == kUnmapped) {
          local[f.block] = builder.AddBlock(synopsis.blocks()[f.block]);
        }
        facts.push_back(Synopsis::ImageFact{local[f.block], f.tid});
      }
      builder.AddImage(facts);
    }
    const Synopsis sub = builder.Finish();
    std::optional<double> r_c =
        ExactRatioInclusionExclusion(sub, max_component_images);
    if (!r_c.has_value()) return std::nullopt;
    prob_none *= 1.0 - *r_c;
  }
  return 1.0 - prob_none;
}

std::optional<double> ExactRelativeFrequencyByRepairs(
    const Database& db, const ConjunctiveQuery& q, const Tuple& answer,
    size_t max_repairs) {
  CQA_CHECK(answer.size() == q.answer_vars().size());
  const std::shared_ptr<const BlockIndex> index = db.block_index();
  if (CountRepairsLog10(db, *index) >
      std::log10(static_cast<double>(max_repairs))) {
    return std::nullopt;
  }
  ConjunctiveQuery bound = q.BindAnswer(answer);
  size_t hits = 0;
  size_t total = 0;
  ForEachRepair(db, *index, [&](const std::vector<FactRef>& selection) {
    Database repair = MaterializeRepair(db, selection);
    CqEvaluator evaluator(&repair);
    ++total;
    if (evaluator.HasAnswer(bound)) ++hits;
    return true;
  });
  return static_cast<double>(hits) / static_cast<double>(total);
}

std::optional<bool> IsCertainAnswerByRepairs(const Database& db,
                                             const ConjunctiveQuery& q,
                                             const Tuple& answer,
                                             size_t max_repairs) {
  CQA_CHECK(answer.size() == q.answer_vars().size());
  const std::shared_ptr<const BlockIndex> index = db.block_index();
  if (CountRepairsLog10(db, *index) >
      std::log10(static_cast<double>(max_repairs))) {
    return std::nullopt;
  }
  ConjunctiveQuery bound = q.BindAnswer(answer);
  bool certain = true;
  ForEachRepair(db, *index, [&](const std::vector<FactRef>& selection) {
    Database repair = MaterializeRepair(db, selection);
    CqEvaluator evaluator(&repair);
    if (!evaluator.HasAnswer(bound)) {
      certain = false;
      return false;
    }
    return true;
  });
  return certain;
}

}  // namespace cqa
