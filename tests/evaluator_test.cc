#include "query/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

std::set<Tuple> AsSet(std::vector<Tuple> v) {
  return std::set<Tuple>(v.begin(), v.end());
}

TEST(EvaluatorTest, SingleAtomAllRows) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(I, N) :- employee(I, N, D).");
  std::vector<Tuple> answers = eval.Evaluate(q);
  EXPECT_EQ(AsSet(answers),
            (std::set<Tuple>{{Value(1), Value("Bob")},
                             {Value(2), Value("Alice")},
                             {Value(2), Value("Tim")}}));
}

TEST(EvaluatorTest, ConstantSelection) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, 'IT').");
  EXPECT_EQ(AsSet(eval.Evaluate(q)),
            (std::set<Tuple>{{Value("Bob")}, {Value("Alice")}, {Value("Tim")}}));
}

TEST(EvaluatorTest, SelfJoinSameDepartment) {
  // The query of Example 1.1: do employees 1 and 2 share a department?
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  EXPECT_TRUE(eval.HasAnswer(q));
  // Homomorphisms: (Bob-IT, Alice-IT) and (Bob-IT, Tim-IT).
  EXPECT_EQ(eval.CountHomomorphisms(q), 2u);
}

TEST(EvaluatorTest, RepeatedVariableWithinAtom) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "e", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}, {0}));
  Database db(&schema);
  db.Insert("e", {Value(1), Value(1)});
  db.Insert("e", {Value(2), Value(3)});
  CqEvaluator eval(&db);
  ConjunctiveQuery q = MustParseCq(schema, "Q(X) :- e(X, X).");
  EXPECT_EQ(eval.Evaluate(q), (std::vector<Tuple>{{Value(1)}}));
}

TEST(EvaluatorTest, EmptyResultWhenNoMatch) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, 'LEGAL').");
  EXPECT_TRUE(eval.Evaluate(q).empty());
  EXPECT_FALSE(eval.HasAnswer(q));
  EXPECT_EQ(eval.CountHomomorphisms(q), 0u);
}

TEST(EvaluatorTest, CountHomomorphismsRespectsLimit) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q() :- employee(I, N, D).");
  EXPECT_EQ(eval.CountHomomorphisms(q), 4u);
  EXPECT_EQ(eval.CountHomomorphisms(q, 2), 2u);
}

TEST(EvaluatorTest, HomomorphismImagesAreCorrect) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q() :- employee(1, N, D).");
  std::set<size_t> rows;
  eval.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    EXPECT_EQ(h.image.size(), 1u);
    EXPECT_EQ(h.image[0].relation_id, 0u);
    rows.insert(h.image[0].row);
    return true;
  });
  EXPECT_EQ(rows, (std::set<size_t>{0, 1}));
}

TEST(EvaluatorTest, MultiHopJoin) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "edge", {{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  Database db(&schema);
  db.Insert("edge", {Value(1), Value(2)});
  db.Insert("edge", {Value(2), Value(3)});
  db.Insert("edge", {Value(3), Value(4)});
  db.Insert("edge", {Value(2), Value(4)});
  CqEvaluator eval(&db);
  // Paths of length 2 from 1.
  ConjunctiveQuery q =
      MustParseCq(schema, "Q(Z) :- edge(1, Y), edge(Y, Z).");
  EXPECT_EQ(AsSet(eval.Evaluate(q)),
            (std::set<Tuple>{{Value(3)}, {Value(4)}}));
  // Triangle 2->3->4 with shortcut 2->4 exists.
  ConjunctiveQuery tri = MustParseCq(
      schema, "Q() :- edge(X, Y), edge(Y, Z), edge(X, Z).");
  EXPECT_TRUE(eval.HasAnswer(tri));
}

TEST(EvaluatorTest, TriangleDetection) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "edge", {{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  Database db(&schema);
  db.Insert("edge", {Value(1), Value(2)});
  db.Insert("edge", {Value(2), Value(3)});
  CqEvaluator eval(&db);
  ConjunctiveQuery tri = MustParseCq(
      schema, "Q() :- edge(X, Y), edge(Y, Z), edge(X, Z).");
  EXPECT_FALSE(eval.HasAnswer(tri));
  db.Insert("edge", {Value(1), Value(3)});
  CqEvaluator eval2(&db);
  EXPECT_TRUE(eval2.HasAnswer(tri));
}

TEST(EvaluatorTest, SharedIndexCacheGivesSameResults) {
  EmployeeFixture fx;
  DatabaseIndexCache cache(fx.db.get());
  CqEvaluator a(fx.db.get(), &cache);
  CqEvaluator b(fx.db.get(), &cache);
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(2, N, D).");
  EXPECT_EQ(AsSet(a.Evaluate(q)), AsSet(b.Evaluate(q)));
}

TEST(EvaluatorTest, AnswerTupleProjectsAssignment) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(D, N) :- employee(1, N, D).");
  std::set<Tuple> answers;
  eval.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    answers.insert(h.AnswerTuple(q));
    return true;
  });
  EXPECT_EQ(answers, (std::set<Tuple>{{Value("HR"), Value("Bob")},
                                      {Value("IT"), Value("Bob")}}));
}

TEST(EvaluatorTest, StopEnumerationEarly) {
  EmployeeFixture fx;
  CqEvaluator eval(fx.db.get());
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q() :- employee(I, N, D).");
  size_t calls = 0;
  eval.ForEachHomomorphism(q, [&](const Homomorphism&) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1u);
}

std::vector<uint32_t> Rows(std::span<const uint32_t> rows) {
  return std::vector<uint32_t>(rows.begin(), rows.end());
}

TEST(RelationIndexTest, LookupSemantics) {
  EmployeeFixture fx;
  RelationIndex index =
      RelationIndex::Build(fx.db->relation("employee"), {2});
  EXPECT_EQ(Rows(index.Lookup({Value("IT")})),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(index.Lookup({Value("LEGAL")}).empty());
  // A key of another type than its column matches nothing.
  EXPECT_TRUE(index.Lookup({Value(1)}).empty());
  EXPECT_EQ(index.NumKeys(), 2u);
}

// Doubles keep Value semantics in the index: ±0 share a key, NaN rows are
// left out and a NaN key finds nothing.
TEST(RelationIndexTest, DoubleKeysFollowValueEquality) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "d", {{"x", ValueType::kDouble}, {"y", ValueType::kInt}}));
  Database db(&schema);
  const double nan = std::nan("");
  db.Insert("d", {Value(0.0), Value(0)});
  db.Insert("d", {Value(nan), Value(1)});
  db.Insert("d", {Value(-0.0), Value(2)});
  db.Insert("d", {Value(1.5), Value(3)});
  db.Insert("d", {Value(nan), Value(4)});
  RelationIndex index = RelationIndex::Build(db.relation("d"), {0});
  EXPECT_EQ(Rows(index.Lookup({Value(-0.0)})), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Rows(index.Lookup({Value(0.0)})), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(index.Lookup({Value(nan)}).empty());
  EXPECT_TRUE(index.Lookup({Value(int64_t{0})}).empty());
  EXPECT_EQ(index.NumKeys(), 2u);
}

}  // namespace
}  // namespace cqa
