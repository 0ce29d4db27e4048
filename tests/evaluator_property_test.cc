// Property tests pitting the index-nested-loop evaluator against a
// brute-force oracle that tries every assignment of the query variables
// to the active domain.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "query/evaluator.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

/// All answers of q over db by exhaustive assignment enumeration.
std::set<Tuple> BruteForceEvaluate(const Database& db,
                                   const ConjunctiveQuery& q) {
  // Active domain.
  std::vector<Value> domain;
  {
    std::unordered_set<Value, ValueHash> seen;
    for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
      const Relation& rel = db.relation(rid);
      for (size_t row = 0; row < rel.size(); ++row) {
        for (const Value& v : rel.row(row)) {
          if (seen.insert(v).second) domain.push_back(v);
        }
      }
    }
  }
  // Fact lookup per relation.
  std::vector<std::set<Tuple>> facts(db.NumRelations());
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const Relation& rel = db.relation(rid);
    for (size_t row = 0; row < rel.size(); ++row) {
      facts[rid].insert(rel.row(row));
    }
  }

  std::set<Tuple> answers;
  std::vector<size_t> choice(q.num_vars(), 0);
  while (true) {
    // Build the assignment and check every atom.
    bool holds = true;
    for (const Atom& atom : q.atoms()) {
      Tuple image;
      for (const Term& t : atom.terms) {
        image.push_back(t.is_constant() ? t.constant()
                                        : domain[choice[t.var()]]);
      }
      if (facts[atom.relation_id].count(image) == 0) {
        holds = false;
        break;
      }
    }
    if (holds) {
      Tuple answer;
      for (size_t v : q.answer_vars()) answer.push_back(domain[choice[v]]);
      answers.insert(std::move(answer));
    }
    // Odometer over assignments.
    size_t i = 0;
    for (; i < choice.size(); ++i) {
      if (++choice[i] < domain.size()) break;
      choice[i] = 0;
    }
    if (i == choice.size()) break;
  }
  return answers;
}

/// Random database over a 3-relation schema with small domains: two int
/// relations and one with int, string and double columns, whose doubles
/// include both zeros.
Database RandomDatabase(const Schema& schema, Rng& rng) {
  Database db(&schema);
  size_t r_rows = 3 + rng.UniformIndex(6);
  size_t s_rows = 3 + rng.UniformIndex(6);
  size_t u_rows = 3 + rng.UniformIndex(6);
  for (size_t i = 0; i < r_rows; ++i) {
    db.Insert("r", {Value(rng.UniformInt(0, 3)), Value(rng.UniformInt(0, 3))});
  }
  for (size_t i = 0; i < s_rows; ++i) {
    db.Insert("s", {Value(rng.UniformInt(0, 3)), Value(rng.UniformInt(0, 3))});
  }
  static const char* const kNames[] = {"x", "y", ""};
  static const double kNumbers[] = {0.0, -0.0, 0.5, 1.0};
  for (size_t i = 0; i < u_rows; ++i) {
    db.Insert("u", {Value(rng.UniformInt(0, 3)),
                    Value(kNames[rng.UniformIndex(3)]),
                    Value(kNumbers[rng.UniformIndex(4)])});
  }
  return db;
}

class EvaluatorOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(EvaluatorOracleTest, MatchesBruteForceOnRandomInstances) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  schema.AddRelation(RelationSchema(
      "s", {{"b", ValueType::kInt}, {"c", ValueType::kInt}}));
  schema.AddRelation(RelationSchema("u", {{"a", ValueType::kInt},
                                          {"n", ValueType::kString},
                                          {"x", ValueType::kDouble}}));
  const char* kQueries[] = {
      "Q(A, B) :- r(A, B).",
      "Q(A, C) :- r(A, B), s(B, C).",
      "Q(A) :- r(A, A).",
      "Q(B) :- r(A, B), s(B, 2).",
      "Q() :- r(A, B), s(B, A).",
      "Q(A) :- r(A, B), r(B, A).",
      "Q(C) :- r(1, B), s(B, C).",
      "Q(N, X) :- u(A, N, X).",
      "Q(A, N) :- r(A, B), u(B, N, X).",
      "Q(N) :- u(A, N, X), u(B, N, X).",
      "Q(A) :- u(A, 'x', X).",
      "Q(X) :- u(A, N, X), u(A, M, 0.0).",
      "Q(N) :- u(A, N, 0.5), r(A, A).",
      "Q(A, B) :- u(A, N, X), u(B, N, Y), s(A, B).",
  };
  Rng rng(900 + GetParam());
  Database db = RandomDatabase(schema, rng);
  CqEvaluator evaluator(&db);
  for (const char* text : kQueries) {
    ConjunctiveQuery q = MustParseCq(schema, text);
    std::vector<Tuple> fast = evaluator.Evaluate(q);
    std::set<Tuple> fast_set(fast.begin(), fast.end());
    EXPECT_EQ(fast_set.size(), fast.size()) << text << ": duplicates";
    EXPECT_EQ(fast_set, BruteForceEvaluate(db, q)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EvaluatorOracleTest,
                         ::testing::Range(0, 15));

TEST(EvaluatorOracleTest, HomomorphismCountMatchesSemantics) {
  // #homomorphisms of a full cross product equals |r|·|s|.
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  schema.AddRelation(RelationSchema(
      "s", {{"b", ValueType::kInt}, {"c", ValueType::kInt}}));
  Database db(&schema);
  for (int i = 0; i < 4; ++i) db.Insert("r", {Value(i), Value(i)});
  for (int i = 0; i < 3; ++i) db.Insert("s", {Value(i), Value(i)});
  CqEvaluator evaluator(&db);
  ConjunctiveQuery q =
      MustParseCq(schema, "Q() :- r(A, B), s(C, D).");
  EXPECT_EQ(evaluator.CountHomomorphisms(q), 12u);
}

}  // namespace
}  // namespace cqa
