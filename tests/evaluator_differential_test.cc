// Differential tests of the typed evaluator against the Value-based
// reference loop it replaced (reference_evaluator.h): on seeded random
// instances both must produce the same homomorphism sequence, image by
// image and value by value, including where the evaluator's plan leaves
// greedy order and sorts its output back into it. The instances mix int,
// double and string columns, straddle the 4096-row chunk boundary, mix
// dictionary and plain segments with unsealed tails, and carry ±0.0, NaN
// and empty strings; the queries mix constants of the right and the wrong
// type, joins across column types, repeated variables in one atom,
// self-joins and Boolean heads.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "reference_evaluator.h"

namespace cqa {
namespace {

using testing::DiffEvaluators;

struct Instance {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<Database> db;
};

/// A value of `type` from a domain of about `domain` values, with ±0.0,
/// NaN and the empty string among the doubles and strings.
Value RandomValue(Rng& rng, ValueType type, int64_t domain) {
  const int64_t k = rng.UniformInt(0, domain - 1);
  switch (type) {
    case ValueType::kInt:
      return Value(k);
    case ValueType::kDouble:
      switch (k % 8) {
        case 0:
          return Value(0.0);
        case 1:
          return Value(-0.0);
        case 2:
          return Value(std::nan(""));
        default:
          return Value(static_cast<double>(k) / 4);
      }
    case ValueType::kString:
      return k % 7 == 0 ? Value("") : Value("v" + std::to_string(k));
  }
  return Value();
}

ValueType RandomType(Rng& rng) {
  return static_cast<ValueType>(rng.UniformIndex(3));
}

/// Three relations of arity 1-3 with random column types. A `big`
/// instance gives one relation 4095, 4096 or 4097 rows (the others may
/// follow) over wide domains; a small one has 0-12 rows per relation over
/// tiny domains. Storage ends in one of four states: all in the tail,
/// sealed, sealed with a fresh tail, or sealed twice around a short chunk.
Instance RandomInstance(Rng& rng, bool big) {
  Instance inst;
  inst.schema = std::make_unique<Schema>();
  for (int r = 0; r < 3; ++r) {
    std::vector<Attribute> attrs;
    const size_t arity = 1 + rng.UniformIndex(3);
    for (size_t c = 0; c < arity; ++c) {
      attrs.push_back({"c" + std::to_string(c), RandomType(rng)});
    }
    inst.schema->AddRelation(RelationSchema("r" + std::to_string(r), attrs));
  }
  inst.db = std::make_unique<Database>(inst.schema.get());
  static const size_t kBigSizes[] = {4095, 4096, 4097};
  std::vector<size_t> rows(3);
  std::vector<std::vector<int64_t>> domains(3);
  for (size_t r = 0; r < 3; ++r) {
    const bool large = big && (r == 0 || rng.Bernoulli(0.3));
    rows[r] = large ? kBigSizes[rng.UniformIndex(3)] : rng.UniformIndex(13);
    for (size_t c = 0; c < inst.schema->relation(r).arity(); ++c) {
      // Wide int domains stay plain, narrow ones dictionary-encode.
      domains[r].push_back(large ? (rng.Bernoulli(0.5) ? 600 : 1000000)
                                 : 1 + rng.UniformInt(0, 4));
    }
  }
  auto insert = [&](size_t r, size_t n) {
    const RelationSchema& rs = inst.schema->relation(r);
    for (size_t i = 0; i < n; ++i) {
      Tuple t;
      for (size_t c = 0; c < rs.arity(); ++c) {
        t.push_back(RandomValue(rng, rs.attribute(c).type, domains[r][c]));
      }
      inst.db->Insert(r, std::move(t));
    }
  };
  const size_t mode = rng.UniformIndex(4);
  for (size_t r = 0; r < 3; ++r) {
    insert(r, mode == 0 ? rows[r] : rows[r] - rows[r] / 3);
  }
  if (mode == 0) return inst;
  inst.db->SealStorage();
  for (size_t r = 0; r < 3; ++r) insert(r, rows[r] / 3);
  if (mode == 1 || mode == 3) inst.db->SealStorage();
  return inst;
}

/// Whether every atom after the first shares a variable with an earlier
/// one, so no step of the plan is a cross-product scan.
bool Connected(const ConjunctiveQuery& q) {
  std::vector<bool> seen(q.num_vars(), false);
  for (size_t i = 0; i < q.NumAtoms(); ++i) {
    bool shares = i == 0;
    for (const Term& t : q.atom(i).terms) {
      if (t.is_variable() && seen[t.var()]) shares = true;
    }
    if (!shares) return false;
    for (const Term& t : q.atom(i).terms) {
      if (t.is_variable()) seen[t.var()] = true;
    }
  }
  return true;
}

/// 1-3 atoms over a pool of two to five variables; a term is a constant
/// one time in five, of its column's type three times in four. Each pool
/// variable leans to one type, so most joins are between columns of one
/// type and some are not. The head is a random subset of the variables,
/// empty for a Boolean query.
ConjunctiveQuery RandomQuery(Rng& rng, const Schema& schema) {
  const size_t pool = 2 + rng.UniformIndex(4);
  std::vector<size_t> ids(pool, SIZE_MAX);  // Pool slot -> dense id.
  std::vector<ValueType> leans(pool);
  for (ValueType& t : leans) t = RandomType(rng);
  size_t next = 0;
  ConjunctiveQuery q;
  const size_t atoms = 1 + rng.UniformIndex(3);
  for (size_t a = 0; a < atoms; ++a) {
    Atom atom;
    atom.relation_id = rng.UniformIndex(schema.NumRelations());
    const RelationSchema& rs = schema.relation(atom.relation_id);
    for (size_t c = 0; c < rs.arity(); ++c) {
      if (rng.Bernoulli(0.2)) {
        const ValueType type =
            rng.Bernoulli(0.75) ? rs.attribute(c).type : RandomType(rng);
        atom.terms.push_back(Term::Const(RandomValue(rng, type, 5)));
        continue;
      }
      size_t slot = rng.UniformIndex(pool);
      for (size_t tries = 0; tries < 4 && rng.Bernoulli(0.85) &&
                             leans[slot] != rs.attribute(c).type;
           ++tries) {
        slot = rng.UniformIndex(pool);
      }
      if (ids[slot] == SIZE_MAX) ids[slot] = next++;
      atom.terms.push_back(Term::Var(ids[slot]));
    }
    q.AddAtom(std::move(atom));
  }
  std::vector<size_t> head;
  for (size_t v = 0; v < next; ++v) {
    if (rng.Bernoulli(0.5)) head.push_back(v);
  }
  if (head.size() > 1 && rng.Bernoulli(0.5)) {
    std::swap(head.front(), head.back());
  }
  q.SetAnswerVars(std::move(head));
  q.Validate(schema);
  return q;
}

constexpr size_t kLimit = 2000;

class EvaluatorDifferentialTest : public ::testing::TestWithParam<int> {};

// 24 shards × 10 instances × 5 queries: 240 seeded instances, 48 of them
// with a relation at the chunk boundary.
TEST_P(EvaluatorDifferentialTest, SequenceMatchesReference) {
  Rng rng(7100 + GetParam());
  for (int i = 0; i < 10; ++i) {
    const bool big = i % 5 == 0;
    const Instance inst = RandomInstance(rng, big);
    for (int k = 0; k < 5; ++k) {
      ConjunctiveQuery q = RandomQuery(rng, *inst.schema);
      while (big && !Connected(q)) q = RandomQuery(rng, *inst.schema);
      EXPECT_EQ(DiffEvaluators(*inst.db, q, kLimit), "")
          << q.ToString(*inst.schema) << " (instance " << i << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorDifferentialTest,
                         ::testing::Range(0, 24));

/// The first step at which the greedy order `order` takes an atom that
/// shares no variable with the atoms before it, yet binds one, while a
/// joined or ground atom remains. That is where CqEvaluator's plan leaves
/// greedy order, so it holds and sorts the homomorphisms of each binding
/// of the steps before. order.size() when there is no such step.
size_t CrossProductStep(const ConjunctiveQuery& q,
                        const std::vector<size_t>& order) {
  std::vector<bool> bound(q.num_vars(), false);
  auto joined = [&](size_t atom) {
    bool binds = false;
    for (const Term& t : q.atom(atom).terms) {
      if (!t.is_variable()) continue;
      if (bound[t.var()]) return true;
      binds = true;
    }
    return !binds;
  };
  for (size_t step = 0; step < order.size(); ++step) {
    if (step > 0 && !joined(order[step])) {
      for (size_t later = step + 1; later < order.size(); ++later) {
        if (joined(order[later])) return step;
      }
    }
    for (const Term& t : q.atom(order[step]).terms) {
      if (t.is_variable()) bound[t.var()] = true;
    }
  }
  return order.size();
}

/// A count k such that a stop after k homomorphisms falls inside one
/// binding of the first `depth` atoms of `order`: the k-th and the
/// (k+1)-th homomorphism map those atoms to the same rows. 0 when no
/// binding has two homomorphisms.
size_t StopInsideBinding(const std::vector<testing::ReferenceHomomorphism>& seq,
                         const std::vector<size_t>& order, size_t depth) {
  for (size_t k = 1; k < seq.size(); ++k) {
    bool same = true;
    for (size_t s = 0; s < depth; ++s) {
      same &= seq[k - 1].image[order[s]] == seq[k].image[order[s]];
    }
    if (same) return k;
  }
  return 0;
}

// Queries whose greedy order takes a cross product while a join remains,
// so the evaluator runs a joined plan and sorts each prefix binding's
// homomorphisms back into greedy order. About one random query in a
// hundred does, so each query is redrawn until it does and has a
// homomorphism; instances are drawn until 40 small and 10 chunk-boundary
// ones have such a query. Per query: the whole sequence (the first kLimit
// on chunk-boundary instances), then a stop inside one binding;
// DiffEvaluators also compares CountHomomorphisms with the same limit,
// HasAnswer and Evaluate.
TEST(EvaluatorDifferentialTest, HeldAndSortedSequenceMatchesReference) {
  constexpr size_t kSmall = 40, kBig = 10;
  Rng rng(7300);
  size_t small = 0, big = 0, stopped_inside = 0;
  for (int i = 0; i < 1000 && (small < kSmall || big < kBig); ++i) {
    const bool boundary = i % 4 == 0;
    if (boundary ? big == kBig : small == kSmall) continue;
    const Instance inst = RandomInstance(rng, boundary);
    testing::ReferenceEvaluator reference(inst.db.get());
    ConjunctiveQuery q;
    std::vector<size_t> order;
    size_t depth = 0;
    bool found = false;
    for (int tries = 0; tries < 1000 && !found; ++tries) {
      q = RandomQuery(rng, *inst.schema);
      order = reference.PlanAtomOrder(q);
      depth = CrossProductStep(q, order);
      found = depth < q.NumAtoms() && !reference.All(q, 1).empty();
    }
    if (!found) continue;  // Rare or impossible on some schemas.
    ++(boundary ? big : small);
    const std::string what =
        q.ToString(*inst.schema) + " (instance " + std::to_string(i) + ")";
    EXPECT_EQ(DiffEvaluators(*inst.db, q, boundary ? kLimit : 0), "")
        << what;
    const size_t k =
        StopInsideBinding(reference.All(q, kLimit), order, depth);
    if (k == 0) continue;
    ++stopped_inside;
    EXPECT_EQ(DiffEvaluators(*inst.db, q, k), "")
        << what << ", stopped after " << k;
  }
  EXPECT_EQ(small, kSmall);
  EXPECT_EQ(big, kBig);
  EXPECT_GT(stopped_inside, 30u);
}

// Shaped like Q8_H: after region and nation, the greedy order takes the
// constant-bearing part atom, which joins nothing yet, over the joined
// orders atom. A stop after every count is compared with the reference.
TEST(EvaluatorDifferentialTest, ConstantAtomChosenOverAJoin) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "region", {{"rk", ValueType::kInt}, {"name", ValueType::kString}}));
  schema.AddRelation(RelationSchema(
      "nation", {{"nk", ValueType::kInt}, {"rk", ValueType::kInt}}));
  schema.AddRelation(RelationSchema(
      "part", {{"pk", ValueType::kInt}, {"type", ValueType::kString}}));
  schema.AddRelation(RelationSchema(
      "orders", {{"ok", ValueType::kInt}, {"nk", ValueType::kInt}}));
  schema.AddRelation(RelationSchema(
      "lineitem", {{"ok", ValueType::kInt}, {"pk", ValueType::kInt}}));
  Database db(&schema);
  Rng rng(8);
  for (int64_t r = 0; r < 5; ++r) {
    db.Insert("region", {Value(r), Value(r % 2 == 0 ? "A" : "B")});
  }
  for (int64_t n = 0; n < 25; ++n) {
    db.Insert("nation", {Value(n), Value(n % 5)});
  }
  for (int64_t p = 0; p < 40; ++p) {
    db.Insert("part", {Value(p), Value(p % 3 == 0 ? "T" : "U")});
  }
  for (int64_t o = 0; o < 60; ++o) {
    db.Insert("orders", {Value(o), Value(rng.UniformInt(0, 24))});
  }
  for (int64_t l = 0; l < 200; ++l) {
    db.Insert("lineitem", {Value(l % 60), Value(rng.UniformInt(0, 39))});
  }
  const ConjunctiveQuery q = MustParseCq(
      schema,
      "Q(N, P) :- part(P, 'T'), lineitem(O, P), orders(O, N), "
      "nation(N, R), region(R, 'A').");
  testing::ReferenceEvaluator reference(&db);
  const std::vector<size_t> order = reference.PlanAtomOrder(q);
  ASSERT_EQ(order, (std::vector<size_t>{4, 3, 0, 2, 1}));
  ASSERT_EQ(CrossProductStep(q, order), 2u);
  const size_t total = reference.All(q).size();
  ASSERT_GT(total, 10u);
  EXPECT_EQ(DiffEvaluators(db, q, 0), "");
  for (size_t k = 1; k <= total; ++k) {
    EXPECT_EQ(DiffEvaluators(db, q, k), "") << "stopped after " << k;
  }
}

// Hand-picked cases the random instances reach only by chance.
TEST(EvaluatorDifferentialTest, ValueSemanticsEdgeCases) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "n", {{"i", ValueType::kInt}, {"d", ValueType::kDouble}}));
  schema.AddRelation(RelationSchema(
      "m", {{"d", ValueType::kDouble}, {"s", ValueType::kString}}));
  Database db(&schema);
  const double nan = std::nan("");
  db.Insert("n", {Value(1), Value(1.0)});
  db.Insert("n", {Value(0), Value(-0.0)});
  db.Insert("n", {Value(2), Value(nan)});
  db.Insert("n", {Value(1), Value(0.0)});
  db.Insert("m", {Value(0.0), Value("zero")});
  db.Insert("m", {Value(nan), Value("nan")});
  db.Insert("m", {Value(1.0), Value("")});
  auto query = [&](std::vector<Atom> atoms, std::vector<size_t> head) {
    ConjunctiveQuery q;
    for (Atom& a : atoms) q.AddAtom(std::move(a));
    q.SetAnswerVars(std::move(head));
    q.Validate(schema);
    return q;
  };
  auto atom = [](size_t rel, std::vector<Term> terms) {
    return Atom{rel, std::move(terms)};
  };
  using T = Term;
  CqEvaluator eval(&db);
  // ±0 join, NaN never joins: n.d = m.d matches -0.0/0.0 (twice) and 1.0.
  const ConjunctiveQuery pm = query(
      {atom(0, {T::Var(0), T::Var(1)}), atom(1, {T::Var(1), T::Var(2)})},
      {2});
  EXPECT_EQ(eval.CountHomomorphisms(pm), 3u);
  EXPECT_EQ(DiffEvaluators(db, pm, 0), "");
  // An int variable joined to a double column never matches: 1 != 1.0.
  const ConjunctiveQuery cross = query(
      {atom(0, {T::Var(0), T::Var(1)}), atom(1, {T::Var(0), T::Var(2)})},
      {});
  EXPECT_EQ(eval.CountHomomorphisms(cross), 0u);
  EXPECT_EQ(DiffEvaluators(db, cross, 0), "");
  // Constants of the wrong type, and NaN, match nothing.
  for (const Value& c : {Value(int64_t{1}), Value(nan), Value("1")}) {
    const ConjunctiveQuery q =
        query({atom(0, {T::Var(0), T::Const(c)})}, {0});
    EXPECT_EQ(eval.CountHomomorphisms(q), 0u) << c;
    EXPECT_EQ(DiffEvaluators(db, q, 0), "") << c;
  }
  // -0.0 as a constant finds both zeros, first at depth 0, then by index.
  const ConjunctiveQuery zero =
      query({atom(0, {T::Var(0), T::Const(Value(-0.0))}),
             atom(1, {T::Const(Value(0.0)), T::Var(1)})},
            {0, 1});
  EXPECT_EQ(eval.CountHomomorphisms(zero), 2u);
  EXPECT_EQ(DiffEvaluators(db, zero, 0), "");
  // A repeated variable in one atom over columns of one type (the NaN row
  // fails x = x) and of two types (never).
  const ConjunctiveQuery same = query(
      {atom(1, {T::Var(0), T::Var(1)}), atom(1, {T::Var(0), T::Var(2)})},
      {0, 1, 2});
  EXPECT_EQ(eval.CountHomomorphisms(same), 2u);
  EXPECT_EQ(DiffEvaluators(db, same, 0), "");
  const ConjunctiveQuery mixed = query({atom(0, {T::Var(0), T::Var(0)})}, {0});
  EXPECT_EQ(eval.CountHomomorphisms(mixed), 0u);
  EXPECT_EQ(DiffEvaluators(db, mixed, 0), "");
}

}  // namespace
}  // namespace cqa
