#include "gen/dqg.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "common/macros.h"
#include "cqa/synopsis.h"
#include "storage/block_index.h"

namespace cqa {

namespace {

/// A consistent homomorphism's data needed to score projections: the
/// values of every variable.
struct HomRecord {
  Tuple assignment;
};

}  // namespace

std::vector<DqgResult> GenerateBalancedQueries(
    const Database& db, const ConjunctiveQuery& q,
    const std::vector<double>& targets, const DqgOptions& options, Rng& rng,
    DatabaseIndexCache* cache) {
  // Enumerate homomorphisms once; record consistent ones and count the
  // globally distinct images (the balance denominator, independent of the
  // projection).
  const std::shared_ptr<const BlockIndex> block_index = db.block_index();
  std::set<std::vector<GlobalFact>> distinct_images;
  std::vector<HomRecord> homs;
  std::unordered_set<Tuple, TupleHash> distinct_assignments;
  CqEvaluator evaluator(&db, cache);
  std::vector<GlobalFact> image;
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    image.clear();
    for (const FactRef& f : h.image) {
      const BlockAnnotation ann =
          block_index->relation(f.relation_id).annotation(f.row);
      image.push_back(GlobalFact{static_cast<uint32_t>(f.relation_id),
                                 static_cast<uint32_t>(ann.block_id),
                                 static_cast<uint32_t>(ann.tuple_id),
                                 static_cast<uint32_t>(ann.block_size)});
    }
    if (!CanonicalizeImage(&image)) return true;  // Inconsistent image.
    distinct_images.insert(image);
    if (distinct_assignments.insert(h.assignment).second) {
      homs.push_back(HomRecord{h.assignment});
    }
    return true;
  });

  std::vector<DqgResult> results;
  if (distinct_images.empty()) return results;
  const double denominator = static_cast<double>(distinct_images.size());

  // Candidate projections: random non-empty subsets of the variables.
  // (Projecting an attribute set of the participating relations is
  // equivalent to selecting the variables at those positions.)
  auto balance_of = [&](const std::vector<size_t>& vars) {
    std::unordered_set<Tuple, TupleHash> answers;
    for (const HomRecord& hom : homs) {
      Tuple t;
      t.reserve(vars.size());
      for (size_t v : vars) t.push_back(hom.assignment[v]);
      answers.insert(std::move(t));
    }
    return static_cast<double>(answers.size()) / denominator;
  };

  struct Candidate {
    std::vector<size_t> vars;
    double balance;
  };
  std::vector<Candidate> pool;
  std::set<std::vector<size_t>> seen;
  const size_t num_vars = q.num_vars();
  CQA_CHECK(num_vars >= 1);
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
