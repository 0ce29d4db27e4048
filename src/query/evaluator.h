#ifndef CQABENCH_QUERY_EVALUATOR_H_
#define CQABENCH_QUERY_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "query/cq.h"
#include "storage/database.h"
#include "storage/key_groups.h"

namespace cqa {

/// Hash index of one relation on a fixed set of key positions, built on
/// demand by DatabaseIndexCache and immutable afterwards: the key-grouping
/// kernel's groups (storage/key_groups.h) with their lookup chains. Each
/// distinct key owns a run of 32-bit row numbers in CSR form, rows
/// ascending within a key. Keys are not stored: a probe compares against
/// the first row of the run, so the relation must outlive the index and not
/// grow. Rows whose key holds a NaN are left out, since NaN equals nothing.
class RelationIndex {
 public:
  static RelationIndex Build(const Relation& rel,
                             std::vector<size_t> positions) {
    return RelationIndex(KeyGroups::Build(rel, std::move(positions),
                                          KeyGroups::NanRows::kLeftOut));
  }

  /// Rows, ascending, whose projection onto positions() equals `key`: one
  /// slot per position, typed as that column.
  std::span<const uint32_t> Find(const ValueSlot* key) const {
    const uint32_t g = groups_.Find(key);
    if (g == KeyGroups::kNone) return {};
    return groups_.group(g);
  }

  /// Find for a Tuple key. A value whose type differs from its column's
  /// matches nothing.
  std::span<const uint32_t> Lookup(const Tuple& key) const;

  const std::vector<size_t>& positions() const { return groups_.positions(); }

  /// Number of distinct keys.
  size_t NumKeys() const { return groups_.NumGroups(); }

 private:
  explicit RelationIndex(KeyGroups groups) : groups_(std::move(groups)) {}

  KeyGroups groups_;
};

/// Lazily built cache of RelationIndexes for one database. Reusing a cache
/// across many query evaluations on the same instance (the dynamic query
/// generator, the preprocessing step, cqad's misses) amortizes index
/// construction. Thread-safe: Get finds or builds under a leaf lock, and a
/// built index is immutable and never erased, so evaluations that share a
/// cache run unlocked.
///
/// The database must outlive the cache and must not grow while cached
/// indexes are in use.
class DatabaseIndexCache {
 public:
  explicit DatabaseIndexCache(const Database* db) : db_(db) {}

  /// Index of `relation_id` on `positions` (must be sorted ascending).
  const RelationIndex& Get(size_t relation_id,
                           const std::vector<size_t>& positions)
      CQA_EXCLUDES(mu_);

 private:
  struct Key {
    size_t relation_id;
    std::vector<size_t> positions;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = k.relation_id;
      for (size_t p : k.positions) HashCombine(seed, p);
      return seed;
    }
  };

  const Database* db_;
  // Leaf lock: held across one index build, which takes no other lock.
  Mutex mu_;
  std::unordered_map<Key, std::unique_ptr<RelationIndex>, KeyHash> cache_
      CQA_GUARDED_BY(mu_);
};

/// A homomorphism from a CQ to a database as the evaluator hands it to a
/// callback: per atom the fact the atom maps onto (its image), and per
/// variable a typed slot read from the image fact that binds it. Nothing
/// is materialized until a caller asks. Valid during the callback only;
/// string slots point into the database.
class Homomorphism {
 public:
  /// Image fact of each atom, in atom order.
  std::vector<FactRef> image;

  /// Type of variable `var`, fixed for one evaluation.
  ValueType type(size_t var) const { return vars_[var].type; }

  /// Value of variable `var` as a slot of type(var).
  ValueSlot slot(size_t var) const {
    const VarSource& src = vars_[var];
    if (src.rel == nullptr) return ValueSlot{0};  // Occurs in no atom.
    return src.rel->SlotAt(image[src.atom].row, src.col);
  }

  /// Materializes the value of variable `var`.
  Value value(size_t var) const { return SlotValue(type(var), slot(var)); }

  /// h(x̄): the answer variables' values, materialized.
  Tuple AnswerTuple(const ConjunctiveQuery& q) const;

  /// The column that binds a variable: its first occurrence in greedy
  /// order (see CqEvaluator), whatever the plan.
  struct VarSource {
    const Relation* rel = nullptr;
    size_t atom = 0;
    size_t col = 0;
    ValueType type = ValueType::kInt;
  };

 private:
  friend class CqEvaluator;

  std::vector<VarSource> vars_;
};

/// Callback invoked per homomorphism; return false to stop enumeration.
using HomomorphismCallback = std::function<bool(const Homomorphism&)>;

/// Enumerates homomorphisms from conjunctive queries to a database using
/// index-nested-loop joins. Each call compiles the query into a plan once
/// (atom order, access path and per-term operations, with every type
/// mismatch settled as "never matches"), then runs it over typed variable
/// slots: a row tried costs no heap allocation and no Value copy.
///
/// The plan's atom order is greedy, bound terms first (ties to the smaller
/// relation), except that after the first atom it takes only atoms joined
/// to an earlier one (or ground) while any remain, so it avoids cross
/// products. The enumeration order stays that of the plain greedy order
/// (see ForEachHomomorphism); where the two orders differ, the
/// homomorphisms under each binding of their common prefix are held and
/// sorted.
class CqEvaluator {
 public:
  /// `cache` may be shared across evaluators of the same database; when
  /// null the evaluator owns a private cache.
  explicit CqEvaluator(const Database* db, DatabaseIndexCache* cache = nullptr);

  const Database& db() const { return *db_; }

  /// Calls `fn` once per homomorphism from `q` to the database, in the
  /// enumeration-order contract: lexicographic order of the homomorphisms'
  /// image rows, atoms taken in greedy bound-terms-first order (the order
  /// a nested loop over that atom order finds them in). A stop takes
  /// effect at once.
  void ForEachHomomorphism(const ConjunctiveQuery& q,
                           const HomomorphismCallback& fn);

  /// Distinct answers Q(D), in first-derivation order.
  std::vector<Tuple> Evaluate(const ConjunctiveQuery& q);

  /// True iff Q(D) is non-empty.
  bool HasAnswer(const ConjunctiveQuery& q);

  /// Number of homomorphisms, stopping at `limit` when non-zero.
  size_t CountHomomorphisms(const ConjunctiveQuery& q, size_t limit = 0);

 private:
  const Database* db_;
  DatabaseIndexCache* cache_;
  std::unique_ptr<DatabaseIndexCache> owned_cache_;
};

}  // namespace cqa

#endif  // CQABENCH_QUERY_EVALUATOR_H_
