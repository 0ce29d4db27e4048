#include "gen/dqg.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/id_table.h"
#include "common/macros.h"
#include "common/rng.h"
#include "cqa/preprocess.h"
#include "storage/block_index.h"

namespace cqa {

std::vector<DqgResult> GenerateBalancedQueries(
    const Database& db, const ConjunctiveQuery& q,
    const std::vector<double>& targets, const DqgOptions& options, Rng& rng,
    DatabaseIndexCache* cache) {
  // Enumerate homomorphisms once; keep the variable slots of each distinct
  // consistent assignment (strings point into the database) and count the
  // globally distinct images (the balance denominator, independent of the
  // projection).
  const std::shared_ptr<const BlockIndex> block_index = db.block_index();
  const size_t num_vars = q.num_vars();
  std::vector<ValueType> types(num_vars, ValueType::kInt);
  std::vector<ValueSlot> homs;  // Distinct assignment × variable.
  IdTable distinct_homs;
  std::vector<GlobalFact> images;  // Distinct images, back to back.
  std::vector<uint32_t> image_offsets = {0};
  IdTable distinct_images;
  CqEvaluator evaluator(&db, cache);
  std::vector<GlobalFact> image;
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    image.clear();
    for (const FactRef& f : h.image) {
      const BlockAnnotation ann =
          block_index->relation(f.relation_id).annotation(f.row);
      image.push_back(GlobalFact{static_cast<uint32_t>(f.relation_id),
                                 static_cast<uint32_t>(ann.block_id),
                                 static_cast<uint32_t>(ann.tuple_id)});
    }
    if (!CanonicalizeImage(&image)) return true;  // Inconsistent image.
    uint64_t image_hash = image.size();
    for (const GlobalFact& g : image) {
      image_hash = SplitMix64(
          image_hash ^ ((uint64_t{g.relation_id} << 32) | g.block_id));
      image_hash = SplitMix64(image_hash ^ g.tid);
    }
    const auto next_image = static_cast<uint32_t>(distinct_images.size());
    const uint32_t image_id = distinct_images.FindOrAdd(
        next_image, image_hash, [&](uint32_t other) {
          return std::equal(image.begin(), image.end(),
                            images.begin() + image_offsets[other],
                            images.begin() + image_offsets[other + 1]);
        });
    if (image_id == next_image) {
      images.insert(images.end(), image.begin(), image.end());
      image_offsets.push_back(static_cast<uint32_t>(images.size()));
    }

    const size_t at = homs.size();
    uint64_t hom_hash = num_vars;
    for (size_t v = 0; v < num_vars; ++v) {
      types[v] = h.type(v);
      homs.push_back(h.slot(v));
      hom_hash = SplitMix64(hom_hash ^ SlotHash(types[v], homs.back()));
    }
    const auto next_hom = static_cast<uint32_t>(distinct_homs.size());
    const uint32_t hom_id = distinct_homs.FindOrAdd(
        next_hom, hom_hash, [&](uint32_t other) {
          for (size_t v = 0; v < num_vars; ++v) {
            if (!SlotEquals(types[v], homs[other * num_vars + v],
                            homs[at + v])) {
              return false;
            }
          }
          return true;
        });
    if (hom_id != next_hom) homs.resize(at);
    return true;
  });

  std::vector<DqgResult> results;
  if (distinct_images.size() == 0) return results;
  const double denominator = static_cast<double>(distinct_images.size());
  const size_t num_homs = distinct_homs.size();

  // Balance of a projection: its distinct answers over the denominator.
  auto balance_of = [&](const std::vector<size_t>& vars) {
    auto slot = [&](size_t hom, size_t v) { return homs[hom * num_vars + v]; };
    IdTable answers;
    for (uint32_t i = 0; i < num_homs; ++i) {
      uint64_t hash = vars.size();
      for (size_t v : vars) {
        hash = SplitMix64(hash ^ SlotHash(types[v], slot(i, v)));
      }
      answers.FindOrAdd(i, hash, [&](uint32_t j) {
        for (size_t v : vars) {
          if (!SlotEquals(types[v], slot(i, v), slot(j, v))) return false;
        }
        return true;
      });
    }
    return static_cast<double>(answers.size()) / denominator;
  };

  struct Candidate {
    std::vector<size_t> vars;
    double balance;
  };
  std::vector<Candidate> pool;
  std::set<std::vector<size_t>> seen;
  CQA_CHECK(num_vars >= 1);

  // Candidate projections: random non-empty subsets of the variables.
  // (Projecting an attribute set of the participating relations is
  // equivalent to selecting the variables at those positions.)
  for (size_t i = 0; i < options.pool_size; ++i) {
    size_t k = 1 + rng.UniformIndex(num_vars);
    std::vector<size_t> vars = rng.SampleWithoutReplacement(num_vars, k);
    std::sort(vars.begin(), vars.end());
    if (!seen.insert(vars).second) continue;
    double b = balance_of(vars);
    pool.push_back(Candidate{std::move(vars), b});
  }
  if (pool.empty()) return results;

  for (double target : targets) {
    const Candidate* best = &pool[0];
    for (const Candidate& c : pool) {
      if (std::abs(c.balance - target) <
          std::abs(best->balance - target)) {
        best = &c;
      }
    }
    DqgResult r;
    r.query = q.WithAnswerVars(best->vars);
    r.balance = best->balance;
    r.target = target;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace cqa
