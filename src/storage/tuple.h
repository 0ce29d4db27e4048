// Row-view tuples: the materialized form of a fact. Storage itself is
// columnar (storage/relation.h); a Tuple is what Insert accepts on the way
// in and what Relation::row() and Database::FactTuple hand back. Grouping
// never builds one: storage/key_groups.h compares typed slots.
#ifndef CQABENCH_STORAGE_TUPLE_H_
#define CQABENCH_STORAGE_TUPLE_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace cqa {

/// A database tuple: a fixed-arity sequence of constants.
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t seed = t.size();
    for (const Value& v : t) HashCombine(seed, v.Hash());
    return seed;
  }
};

/// Renders "(v1, v2, ...)".
std::string TupleToString(const Tuple& t);

/// Projects `t` onto `positions` (0-based), in the given order.
Tuple ProjectTuple(const Tuple& t, const std::vector<size_t>& positions);

}  // namespace cqa

#endif  // CQABENCH_STORAGE_TUPLE_H_
