#include "query/evaluator.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/macros.h"

namespace cqa {

std::span<const uint32_t> RelationIndex::Lookup(const Tuple& key) const {
  const std::vector<ValueType>& types = groups_.types();
  CQA_CHECK(key.size() == types.size());
  std::vector<ValueSlot> slots(key.size());
  for (size_t k = 0; k < key.size(); ++k) {
    if (key[k].type() != types[k]) return {};
    slots[k] = SlotOf(key[k]);
  }
  return Find(slots.data());
}

const RelationIndex& DatabaseIndexCache::Get(
    size_t relation_id, const std::vector<size_t>& positions) {
  CQA_CHECK(std::is_sorted(positions.begin(), positions.end()));
  MutexLock lock(mu_);
  Key key{relation_id, positions};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto index = std::make_unique<RelationIndex>(
        RelationIndex::Build(db_->relation(relation_id), positions));
    it = cache_.emplace(std::move(key), std::move(index)).first;
  }
  return *it->second;
}

Tuple Homomorphism::AnswerTuple(const ConjunctiveQuery& q) const {
  Tuple t;
  t.reserve(q.answer_vars().size());
  for (size_t v : q.answer_vars()) t.push_back(value(v));
  return t;
}

CqEvaluator::CqEvaluator(const Database* db, DatabaseIndexCache* cache)
    : db_(db), cache_(cache) {
  CQA_CHECK(db != nullptr);
  if (cache_ == nullptr) {
    owned_cache_ = std::make_unique<DatabaseIndexCache>(db);
    cache_ = owned_cache_.get();
  }
}

namespace {

/// Atom order: repeatedly pick the atom with the most bound term positions
/// (constants + variables bound by earlier atoms), breaking ties towards
/// smaller relations. That greedy order is the enumeration-order contract.
/// With `joined_first`, a step after the first considers only joined
/// atoms while one remains: atoms that share a variable bound by an
/// earlier atom, or that bind none (a ground atom is at most a lookup), so
/// the plan takes no cross product that a join could have avoided.
std::vector<size_t> PlanAtomOrder(const Database& db,
                                  const ConjunctiveQuery& q,
                                  bool joined_first) {
  size_t n = q.NumAtoms();
  std::vector<bool> used(n, false);
  std::vector<bool> bound(q.num_vars(), false);
  std::vector<size_t> order;
  order.reserve(n);
  auto joined = [&](size_t i) {
    bool binds = false;
    for (const Term& t : q.atom(i).terms) {
      if (!t.is_variable()) continue;
      if (bound[t.var()]) return true;
      binds = true;
    }
    return !binds;
  };
  for (size_t step = 0; step < n; ++step) {
    bool only_joined = false;
    for (size_t i = 0; joined_first && step > 0 && i < n; ++i) {
      only_joined |= !used[i] && joined(i);
    }
    size_t best = n;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i] || (only_joined && !joined(i))) continue;
      const Atom& a = q.atom(i);
      size_t bound_terms = 0;
      for (const Term& t : a.terms) {
        if (t.is_constant() || bound[t.var()]) ++bound_terms;
      }
      size_t rel_size = db.relation(a.relation_id).size();
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

/// How a plan step finds its candidate rows. The access path settles every
/// term bound before the step (constants and earlier variables).
enum class Access {
  kScan,          // Nothing bound: every row, ascending.
  kScanMatching,  // First step, only constants bound: a stats-pruned scan.
  kLookup,        // An index lookup on the bound positions.
};

/// A term the access path does not settle: the first occurrence of a
/// variable binds its slot; a later one in the same atom checks it.
struct Op {
  size_t col;
  size_t var;
  bool bind;
};

/// Where one component of a lookup key comes from.
struct KeyPart {
  bool constant;
  size_t var;       // When !constant.
  ValueSlot value;  // When constant: points into the query.
};

/// One atom of the plan, in evaluation order.
struct Step {
  size_t atom = 0;
  size_t relation_id = 0;
  const Relation* rel = nullptr;
  Access access = Access::kScan;
  std::vector<size_t> key_positions;  // Bound positions, ascending.
  std::vector<KeyPart> key;           // kLookup: per key position.
  Tuple scan_key;                     // kScanMatching: the constants.
  // Binds that a later term reads, and checks, in term order. A variable
  // that occurs once needs no bind: Homomorphism reads it from the image.
  std::vector<Op> ops;
  const RelationIndex* index = nullptr;  // kLookup: fetched on first use.
};

/// The compiled query and the state of one enumeration over it.
class Search {
 public:
  Search(DatabaseIndexCache* cache, const HomomorphismCallback& fn)
      : cache_(cache), fn_(fn) {}

  /// Plans atom order, access paths and ops, and where each variable is
  /// bound. Returns false when some term can never match: a constant or a
  /// bound variable of another type than its column, or a NaN constant.
  bool Compile(const Database& db, const ConjunctiveQuery& q,
               std::vector<Homomorphism::VarSource>* sources) {
    std::vector<size_t> occurrences(q.num_vars(), 0);
    size_t max_width = 0;
    for (const Atom& atom : q.atoms()) {
      max_width = std::max(max_width, atom.terms.size());
      for (const Term& t : atom.terms) {
        if (t.is_variable()) ++occurrences[t.var()];
      }
    }
    slots_.assign(q.num_vars(), ValueSlot{0});
    key_.assign(max_width, ValueSlot{0});
    types_.assign(q.num_vars(), ValueType::kInt);

    // A variable reads its value from its first occurrence in greedy
    // order, whatever the plan: ±0.0 join, so another column could hold
    // the other zero.
    const std::vector<size_t> greedy = PlanAtomOrder(db, q, false);
    const std::vector<size_t> plan = PlanAtomOrder(db, q, true);
    sources->assign(q.num_vars(), Homomorphism::VarSource{});
    for (size_t atom_index : greedy) {
      const Atom& atom = q.atom(atom_index);
      const Relation& rel = db.relation(atom.relation_id);
      for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
        const Term& t = atom.terms[pos];
        if (t.is_constant() || (*sources)[t.var()].rel != nullptr) continue;
        (*sources)[t.var()] = Homomorphism::VarSource{
            &rel, atom_index, pos, rel.schema().attribute(pos).type};
      }
    }
    restore_depth_ = static_cast<size_t>(
        std::mismatch(plan.begin(), plan.end(), greedy.begin()).first -
        plan.begin());
    restore_atoms_.assign(greedy.begin() + restore_depth_, greedy.end());
    for (size_t atom_index : restore_atoms_) {
      // Held rows are 32-bit, as in every RelationIndex.
      CQA_CHECK(db.relation(q.atom(atom_index).relation_id).size() <=
                UINT32_MAX);
    }

    std::vector<bool> bound(q.num_vars(), false);
    bool never = false;
    for (size_t atom_index : plan) {
      const Atom& atom = q.atom(atom_index);
      Step step;
      step.atom = atom_index;
      step.relation_id = atom.relation_id;
      step.rel = &db.relation(atom.relation_id);
      const RelationSchema& schema = step.rel->schema();
      std::vector<bool> is_key(atom.terms.size(), false);
      bool all_constant = true;
      for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
        const Term& t = atom.terms[pos];
        const ValueType type = schema.attribute(pos).type;
        if (t.is_constant()) {
          const Value& c = t.constant();
          never |= c.type() != type || SlotIsNaN(type, SlotOf(c));
          step.key.push_back(KeyPart{true, 0, SlotOf(c)});
          step.scan_key.push_back(c);
        } else if (bound[t.var()]) {
          never |= types_[t.var()] != type;
          all_constant = false;
          step.key.push_back(KeyPart{false, t.var(), ValueSlot{0}});
        } else {
          continue;
        }
        is_key[pos] = true;
        step.key_positions.push_back(pos);
      }
      if (step.key_positions.empty()) {
        step.access = Access::kScan;
      } else if (steps_.empty() && all_constant) {
        step.access = Access::kScanMatching;
      } else {
        step.access = Access::kLookup;
      }
      for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
        if (is_key[pos]) continue;
        const size_t v = atom.terms[pos].var();
        const ValueType type = schema.attribute(pos).type;
        if (bound[v]) {  // Bound by an earlier term of this atom.
          never |= types_[v] != type;
          step.ops.push_back(Op{pos, v, false});
          continue;
        }
        bound[v] = true;
        types_[v] = type;
        if (occurrences[v] > 1) step.ops.push_back(Op{pos, v, true});
      }
      steps_.push_back(std::move(step));
    }
    return !never;
  }

  /// Enumerates every homomorphism of the compiled plan into `h`.
  void Run(Homomorphism* h) {
    h_ = h;
    h_->image.assign(steps_.size(), FactRef{});
    Descend(0);
  }

 private:
  /// Matches the step at `depth` and everything after it. Returns false
  /// once the callback has stopped the enumeration.
  ///
  /// Where the plan leaves greedy order (at restore_depth_), each binding
  /// of the steps before it holds its homomorphisms, 4 bytes per remaining
  /// atom, and hands them on sorted. The greedy nested loop yields rows in
  /// ascending order at every step, so its sequence is the homomorphisms
  /// in lexicographic order of their rows, atoms taken in greedy order;
  /// the two plans share the steps before restore_depth_, so sorting what
  /// one binding found restores that sequence.
  bool Descend(size_t depth) {
    if (depth == steps_.size()) {
      if (restore_depth_ == steps_.size()) return fn_(*h_);
      for (size_t atom : restore_atoms_) {
        held_.push_back(static_cast<uint32_t>(h_->image[atom].row));
      }
      return true;
    }
    if (depth != restore_depth_) return Match(depth);
    held_.clear();
    Match(depth);  // Only holds, so it never stops.
    return HandOnInGreedyOrder();
  }

  /// Tries every candidate row of the step at `depth`.
  bool Match(size_t depth) {
    Step& step = steps_[depth];
    switch (step.access) {
      case Access::kScan:
        for (size_t row = 0; row < step.rel->size(); ++row) {
          if (!TryRow(step, depth, row)) return false;
        }
        return true;
      case Access::kScanMatching:
        // The first step runs once: a pruned scan beats building an index
        // over the whole relation, in the same ascending row order.
        return step.rel->ScanMatching(
            step.key_positions, step.scan_key,
            [&](size_t row) { return TryRow(step, depth, row); });
      case Access::kLookup:
        if (step.index == nullptr) {
          step.index = &cache_->Get(step.relation_id, step.key_positions);
        }
        for (size_t k = 0; k < step.key.size(); ++k) {
          const KeyPart& part = step.key[k];
          key_[k] = part.constant ? part.value : slots_[part.var];
        }
        for (uint32_t row : step.index->Find(key_.data())) {
          if (!TryRow(step, depth, row)) return false;
        }
        return true;
    }
    return true;
  }

  bool TryRow(const Step& step, size_t depth, size_t row) {
    for (const Op& op : step.ops) {
      const ValueSlot value = step.rel->SlotAt(row, op.col);
      if (op.bind) {
        slots_[op.var] = value;
      } else if (!SlotEquals(types_[op.var], slots_[op.var], value)) {
        return true;
      }
    }
    h_->image[step.atom] = FactRef{step.relation_id, row};
    return Descend(depth + 1);
  }

  /// Hands on the held homomorphisms sorted by their rows of
  /// restore_atoms_; a stop takes effect at once.
  bool HandOnInGreedyOrder() {
    const size_t width = restore_atoms_.size();
    const size_t count = held_.size() / width;
    CQA_CHECK(count <= UINT32_MAX);
    auto rows = [&](uint32_t k) { return held_.data() + k * width; };
    order_.resize(count);
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(rows(a), rows(a) + width, rows(b),
                                          rows(b) + width);
    });
    for (uint32_t k : order_) {
      for (size_t i = 0; i < width; ++i) {
        h_->image[restore_atoms_[i]].row = rows(k)[i];
      }
      if (!fn_(*h_)) return false;
    }
    return true;
  }

  DatabaseIndexCache* cache_;
  const HomomorphismCallback& fn_;
  std::vector<Step> steps_;
  std::vector<ValueSlot> slots_;  // Per variable bound by an op.
  std::vector<ValueType> types_;  // Per variable.
  std::vector<ValueSlot> key_;    // Lookup key scratch.
  Homomorphism* h_ = nullptr;
  // First depth where the plan leaves greedy order; steps_.size() when it
  // does not.
  size_t restore_depth_ = 0;
  std::vector<size_t> restore_atoms_;  // Greedy order from restore_depth_.
  std::vector<uint32_t> held_;   // Per held homomorphism: restore_atoms_' rows.
  std::vector<uint32_t> order_;  // Held homomorphisms, sorted.
};

}  // namespace

void CqEvaluator::ForEachHomomorphism(const ConjunctiveQuery& q,
                                      const HomomorphismCallback& fn) {
  if (q.NumAtoms() == 0) return;
  Homomorphism h;
  Search search(cache_, fn);
  if (search.Compile(*db_, q, &h.vars_)) search.Run(&h);
}

std::vector<Tuple> CqEvaluator::Evaluate(const ConjunctiveQuery& q) {
  std::vector<Tuple> answers;
  std::unordered_set<Tuple, TupleHash> seen;
  ForEachHomomorphism(q, [&](const Homomorphism& h) {
    Tuple t = h.AnswerTuple(q);
    if (seen.insert(t).second) answers.push_back(std::move(t));
    return true;
  });
  return answers;
}

bool CqEvaluator::HasAnswer(const ConjunctiveQuery& q) {
  bool found = false;
  ForEachHomomorphism(q, [&](const Homomorphism&) {
    found = true;
    return false;
  });
  return found;
}

size_t CqEvaluator::CountHomomorphisms(const ConjunctiveQuery& q,
                                       size_t limit) {
  size_t count = 0;
  ForEachHomomorphism(q, [&](const Homomorphism&) {
    ++count;
    return limit == 0 || count < limit;
  });
  return count;
}

}  // namespace cqa
