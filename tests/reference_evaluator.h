#ifndef CQABENCH_TESTS_REFERENCE_EVALUATOR_H_
#define CQABENCH_TESTS_REFERENCE_EVALUATOR_H_

// A test-local reference for CqEvaluator: the Value-based backtracking
// loop the typed evaluator replaced, with a Tuple-keyed hash index, run in
// the greedy atom order that defines CqEvaluator's enumeration order. It
// copies Values into a full assignment and recomputes the bound positions
// on every step, which is slow but plainly follows Value semantics (type
// tag first, doubles by ==, strings by bytes). The differential and fuzz
// tests compare the whole homomorphism sequence of both evaluators.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "query/cq.h"
#include "query/evaluator.h"
#include "storage/database.h"

namespace cqa::testing {

/// One homomorphism as the reference reports it.
struct ReferenceHomomorphism {
  std::vector<Value> assignment;  // Per variable; Value() if unbound.
  std::vector<FactRef> image;     // Per atom.
};

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const Database* db) : db_(db) {}

  /// Calls `fn` per homomorphism in enumeration order; `fn` returns false
  /// to stop. When `rows_tried` is non-null it receives, per plan depth,
  /// the number of candidate rows the access path yielded.
  void ForEach(const ConjunctiveQuery& q,
               const std::function<bool(const ReferenceHomomorphism&)>& fn,
               std::vector<size_t>* rows_tried = nullptr) {
    if (q.NumAtoms() == 0) return;
    q_ = &q;
    fn_ = &fn;
    order_ = PlanAtomOrder(q);
    bound_.assign(q.num_vars(), false);
    h_.assignment.assign(q.num_vars(), Value());
    h_.image.assign(q.NumAtoms(), FactRef{});
    stopped_ = false;
    tried_.assign(q.NumAtoms(), 0);
    Match(0);
    if (rows_tried != nullptr) *rows_tried = tried_;
  }

  /// The whole sequence, up to `limit` homomorphisms when non-zero.
  std::vector<ReferenceHomomorphism> All(const ConjunctiveQuery& q,
                                         size_t limit = 0) {
    std::vector<ReferenceHomomorphism> out;
    ForEach(q, [&](const ReferenceHomomorphism& h) {
      out.push_back(h);
      return limit == 0 || out.size() < limit;
    });
    return out;
  }

  /// The greedy atom order the loop follows: most bound terms first, ties
  /// to the smaller relation. CqEvaluator's enumeration order is defined
  /// by it, whatever plan that evaluator runs.
  std::vector<size_t> PlanAtomOrder(const ConjunctiveQuery& q) const {
    const size_t n = q.NumAtoms();
    std::vector<bool> used(n, false);
    std::vector<bool> bound(q.num_vars(), false);
    std::vector<size_t> order;
    for (size_t step = 0; step < n; ++step) {
      size_t best = n, best_bound = 0, best_size = 0;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        size_t bound_terms = 0;
        for (const Term& t : q.atom(i).terms) {
          if (t.is_constant() || bound[t.var()]) ++bound_terms;
        }
        const size_t rel_size = db_->relation(q.atom(i).relation_id).size();
        if (best == n || bound_terms > best_bound ||
            (bound_terms == best_bound && rel_size < best_size)) {
          best = i;
          best_bound = bound_terms;
          best_size = rel_size;
        }
      }
      used[best] = true;
      order.push_back(best);
      for (const Term& t : q.atom(best).terms) {
        if (t.is_variable()) bound[t.var()] = true;
      }
    }
    return order;
  }

 private:
  using Index = std::unordered_map<Tuple, std::vector<size_t>, TupleHash>;

  const Index& GetIndex(size_t relation_id,
                        const std::vector<size_t>& positions) {
    auto key = std::make_pair(relation_id, positions);
    auto it = indexes_.find(key);
    if (it != indexes_.end()) return it->second;
    const Relation& rel = db_->relation(relation_id);
    Index index;
    for (size_t row = 0; row < rel.size(); ++row) {
      Tuple projected;
      for (size_t pos : positions) projected.push_back(rel.ValueAt(row, pos));
      index[projected].push_back(row);
    }
    return indexes_.emplace(key, std::move(index)).first->second;
  }

  bool Match(size_t depth) {
    if (depth == order_.size()) {
      stopped_ = !(*fn_)(h_);
      return !stopped_;
    }
    const size_t atom_index = order_[depth];
    const Atom& atom = q_->atom(atom_index);
    const Relation& rel = db_->relation(atom.relation_id);
    std::vector<size_t> bound_positions;
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      if (t.is_constant() || bound_[t.var()]) bound_positions.push_back(pos);
    }
    auto try_row = [&](size_t row) {
      ++tried_[depth];
      std::vector<size_t> newly_bound;
      bool ok = true;
      for (size_t pos = 0; pos < atom.terms.size() && ok; ++pos) {
        const Term& t = atom.terms[pos];
        if (t.is_constant()) {
          ok = rel.ValueEquals(row, pos, t.constant());
        } else if (bound_[t.var()]) {
          ok = rel.ValueEquals(row, pos, h_.assignment[t.var()]);
        } else {
          bound_[t.var()] = true;
          h_.assignment[t.var()] = rel.ValueAt(row, pos);
          newly_bound.push_back(t.var());
        }
      }
      if (ok) {
        h_.image[atom_index] = FactRef{atom.relation_id, row};
        Match(depth + 1);
      }
      for (size_t v : newly_bound) bound_[v] = false;
      return !stopped_;
    };

    if (bound_positions.empty()) {
      for (size_t row = 0; row < rel.size() && !stopped_; ++row) {
        try_row(row);
      }
      return !stopped_;
    }
    const bool all_constant = std::all_of(
        bound_positions.begin(), bound_positions.end(),
        [&](size_t pos) { return atom.terms[pos].is_constant(); });
    Tuple key;
    for (size_t pos : bound_positions) {
      const Term& t = atom.terms[pos];
      key.push_back(t.is_constant() ? t.constant() : h_.assignment[t.var()]);
    }
    if (depth == 0 && all_constant) {
      rel.ScanMatching(bound_positions, key, try_row);
      return !stopped_;
    }
    const Index& index = GetIndex(atom.relation_id, bound_positions);
    auto it = index.find(key);
    if (it == index.end()) return true;
    for (size_t row : it->second) {
      if (!try_row(row)) return false;
    }
    return true;
  }

  const Database* db_;
  std::map<std::pair<size_t, std::vector<size_t>>, Index> indexes_;
  const ConjunctiveQuery* q_ = nullptr;
  const std::function<bool(const ReferenceHomomorphism&)>* fn_ = nullptr;
  std::vector<size_t> order_;
  std::vector<bool> bound_;
  ReferenceHomomorphism h_;
  std::vector<size_t> tried_;
  bool stopped_ = false;
};

/// Value identity for comparisons: same type and same bits, so NaN is
/// identical to the same NaN and -0.0 differs from 0.0.
inline bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_double()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a == b;
}

inline bool SameTuple(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

/// Runs CqEvaluator and the reference on `q`, each up to `limit`
/// homomorphisms (0: all), and compares the two sequences: per
/// homomorphism every image FactRef, every variable's value and the
/// answer tuple; then CountHomomorphisms with the limit, HasAnswer and,
/// when the reference enumerated everything, Evaluate. Returns the first
/// difference, or "" when there is none.
inline std::string DiffEvaluators(const Database& db,
                                  const ConjunctiveQuery& q, size_t limit) {
  ReferenceEvaluator reference(&db);
  const std::vector<ReferenceHomomorphism> want = reference.All(q, limit);
  const bool complete = limit == 0 || want.size() < limit;
  CqEvaluator evaluator(&db);
  std::ostringstream why;
  size_t n = 0;
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    if (n == want.size()) {
      why << "homomorphism " << n << " is extra";
      return false;
    }
    const ReferenceHomomorphism& w = want[n];
    if (h.image != w.image) {
      why << "homomorphism " << n << ": images differ";
      return false;
    }
    for (size_t v = 0; v < q.num_vars(); ++v) {
      if (!SameValue(h.value(v), w.assignment[v])) {
        why << "homomorphism " << n << ": " << q.VarName(v) << " = "
            << h.value(v) << ", want " << w.assignment[v];
        return false;
      }
    }
    Tuple answer;
    for (size_t v : q.answer_vars()) answer.push_back(w.assignment[v]);
    if (!SameTuple(h.AnswerTuple(q), answer)) {
      why << "homomorphism " << n << ": answer tuples differ";
      return false;
    }
    ++n;
    return limit == 0 || n < limit;
  });
  if (!why.str().empty()) return why.str();
  if (n != want.size()) {
    why << n << " homomorphisms, want " << want.size();
    return why.str();
  }
  if (evaluator.CountHomomorphisms(q, limit) != want.size()) {
    return "CountHomomorphisms differs";
  }
  if (evaluator.HasAnswer(q) != !want.empty()) return "HasAnswer differs";
  if (complete) {
    std::vector<Tuple> answers;
    std::unordered_set<Tuple, TupleHash> seen;
    for (const ReferenceHomomorphism& w : want) {
      Tuple t;
      for (size_t v : q.answer_vars()) t.push_back(w.assignment[v]);
      if (seen.insert(t).second) answers.push_back(std::move(t));
    }
    const std::vector<Tuple> got = evaluator.Evaluate(q);
    bool same = got.size() == answers.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = SameTuple(got[i], answers[i]);
    }
    if (!same) return "Evaluate differs";
  }
  return "";
}

}  // namespace cqa::testing

#endif  // CQABENCH_TESTS_REFERENCE_EVALUATOR_H_
