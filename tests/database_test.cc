#include "storage/database.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

TEST(TupleTest, ToString) {
  EXPECT_EQ(TupleToString({Value(1), Value("Bob"), Value("HR")}),
            "(1, 'Bob', 'HR')");
  EXPECT_EQ(TupleToString({}), "()");
}

TEST(TupleTest, Project) {
  Tuple t{Value(1), Value("Bob"), Value("HR")};
  EXPECT_EQ(ProjectTuple(t, {2, 0}), (Tuple{Value("HR"), Value(1)}));
  EXPECT_EQ(ProjectTuple(t, {}), Tuple{});
}

TEST(TupleTest, HashConsistentWithEquality) {
  TupleHash h;
  Tuple a{Value(1), Value("x")};
  Tuple b{Value(1), Value("x")};
  EXPECT_EQ(h(a), h(b));
}

// Insert stages a row on the stack up to 32 fields and on the heap
// beyond; both go through AppendRow and read back field for field.
TEST(RelationTest, InsertStagesRowsOfAnyWidth) {
  for (size_t arity : {1, 32, 33, 40}) {
    std::vector<Attribute> attributes;
    for (size_t c = 0; c < arity; ++c) {
      attributes.push_back({"c" + std::to_string(c),
                            static_cast<ValueType>(c % 3)});
    }
    const RelationSchema rs("wide", attributes);
    Relation rel(&rs);
    for (int64_t r = 0; r < 3; ++r) {
      Tuple t;
      for (size_t c = 0; c < arity; ++c) {
        const int64_t v = r * 100 + static_cast<int64_t>(c);
        switch (c % 3) {
          case 0:
            t.push_back(Value(v));
            break;
          case 1:
            t.push_back(Value(static_cast<double>(v) / 2));
            break;
          default:
            t.push_back(Value("a string of more than 15 bytes " +
                              std::to_string(v)));
        }
      }
      EXPECT_EQ(rel.Insert(t), static_cast<size_t>(r));
      EXPECT_EQ(rel.row(static_cast<size_t>(r)), t) << "arity " << arity;
    }
  }
}

/// Inserts rows [from, to) of a fixed three-column pattern: an int that
/// dictionary-encodes, a double and a string that stays plain.
void InsertPatternRows(Relation* rel, size_t from, size_t to) {
  for (size_t r = from; r < to; ++r) {
    rel->Insert({Value(static_cast<int64_t>(r % 100)),
                 Value(static_cast<double>(r) / 4),
                 Value("s" + std::to_string(r))});
  }
}

/// Every row of `rel` reads back the pattern through SlotAt, ValueAt and
/// ValueEquals, whichever chunk (or the tail) holds it.
void ExpectPatternRows(const Relation& rel) {
  for (size_t r = 0; r < rel.size(); ++r) {
    const Value i(static_cast<int64_t>(r % 100));
    const Value d(static_cast<double>(r) / 4);
    const Value str("s" + std::to_string(r));
    ASSERT_EQ(rel.SlotAt(r, 0).i, i.AsInt()) << "row " << r;
    ASSERT_EQ(rel.SlotAt(r, 1).d, d.AsDouble()) << "row " << r;
    ASSERT_EQ(*rel.SlotAt(r, 2).s, str.AsString()) << "row " << r;
    ASSERT_EQ(rel.ValueAt(r, 2), str) << "row " << r;
    ASSERT_TRUE(rel.ValueEquals(r, 0, i)) << "row " << r;
    ASSERT_TRUE(rel.ValueEquals(r, 1, d)) << "row " << r;
    ASSERT_FALSE(rel.ValueEquals(r, 0, d)) << "row " << r;
  }
}

// Row -> (chunk, offset) is a division while every chunk but the last is
// full, and a binary search once a short chunk has another after it. Both
// must agree with the chunk layout at 4095/4096/4097 and at every edge.
TEST(RelationTest, RowToValueAtChunkEdges) {
  const RelationSchema schema("r", {{"i", ValueType::kInt},
                                    {"d", ValueType::kDouble},
                                    {"s", ValueType::kString}});
  constexpr size_t kCap = Relation::kDefaultChunkCapacity;

  Relation exact(&schema);  // Sealed at an exact multiple.
  InsertPatternRows(&exact, 0, 2 * kCap);
  exact.SealTail();
  EXPECT_EQ(exact.NumChunks(), 2u);
  ExpectPatternRows(exact);

  Relation short_last(&schema);  // Short last chunk, then a tail.
  InsertPatternRows(&short_last, 0, 2 * kCap + 1);
  short_last.SealTail();
  InsertPatternRows(&short_last, 2 * kCap + 1, 2 * kCap + 3);
  ASSERT_EQ(short_last.NumChunks(), 3u);
  EXPECT_EQ(short_last.chunk_rows(2), 1u);
  EXPECT_EQ(short_last.tail_rows(), 2u);
  ExpectPatternRows(short_last);

  Relation irregular(&schema);  // A short chunk with chunks after it.
  InsertPatternRows(&irregular, 0, kCap - 1);
  irregular.SealTail();
  InsertPatternRows(&irregular, kCap - 1, 2 * kCap + 10);
  irregular.SealTail();
  InsertPatternRows(&irregular, 2 * kCap + 10, 2 * kCap + 12);
  ASSERT_EQ(irregular.NumChunks(), 3u);
  EXPECT_EQ(irregular.chunk_row0(1), kCap - 1);
  EXPECT_EQ(irregular.chunk_rows(1), kCap);
  EXPECT_EQ(irregular.chunk_row0(2), 2 * kCap - 1);
  EXPECT_EQ(irregular.chunk_rows(2), 11u);
  ExpectPatternRows(irregular);
}

TEST(DatabaseTest, InsertReturnsStableFactRefs) {
  EmployeeFixture fx;
  FactRef f = fx.db->Insert("employee", {Value(9), Value("Zoe"), Value("HR")});
  EXPECT_EQ(f.row, 4u);
  EXPECT_EQ(fx.db->FactTuple(f)[1], Value("Zoe"));
}

TEST(DatabaseTest, NumFacts) {
  EmployeeFixture fx;
  EXPECT_EQ(fx.db->NumFacts(), 4u);
}

TEST(DatabaseTest, KeyViolationDetection) {
  EmployeeFixture fx;
  EXPECT_FALSE(fx.db->SatisfiesKeys());
  // Blocks {1: 2 facts, 2: 2 facts} -> one violation each.
  std::vector<KeyViolation> v = fx.db->FindKeyViolations();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].first.row, 0u);
  EXPECT_EQ(v[0].second.row, 1u);
}

// Violations come in row order, each later row against the first row of
// its key: a three-row block pairs both later rows with its first, ±0 are
// one key, a repeat of the first fact is no violation, and a NaN key
// conflicts with nothing, not even another NaN.
TEST(DatabaseTest, ViolationsFollowRowOrderAgainstEachKeysFirstRow) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kDouble}, {"v", ValueType::kInt}}, {0}));
  Database db(&schema);
  const double nan = std::nan("");
  for (const auto& [k, v] : std::vector<std::pair<double, int>>{
           {1.0, 10}, {2.0, 20}, {1.0, 11}, {nan, 30}, {2.0, 21},
           {1.0, 12}, {nan, 31}, {2.0, 20}, {-0.0, 40}, {0.0, 41}}) {
    db.Insert("r", {Value(k), Value(v)});
  }
  std::vector<std::pair<size_t, size_t>> got;
  for (const KeyViolation& v : db.FindKeyViolations()) {
    EXPECT_EQ(v.first.relation_id, 0u);
    EXPECT_EQ(v.second.relation_id, 0u);
    got.emplace_back(v.first.row, v.second.row);
  }
  const std::vector<std::pair<size_t, size_t>> want = {
      {0, 2}, {1, 4}, {0, 5}, {8, 9}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(db.FindKeyViolations(3).size(), 3u);
  EXPECT_EQ(db.FindKeyViolations(3).back().second.row, 5u);
}

TEST(DatabaseTest, ViolationLimitStopsEarly) {
  EmployeeFixture fx;
  EXPECT_EQ(fx.db->FindKeyViolations(1).size(), 1u);
}

TEST(DatabaseTest, ConsistentDatabaseHasNoViolations) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
  Database db(&schema);
  db.Insert("r", {Value(1), Value(10)});
  db.Insert("r", {Value(2), Value(10)});
  EXPECT_TRUE(db.SatisfiesKeys());
}

TEST(DatabaseTest, IdenticalDuplicateFactIsNotAViolation) {
  // Databases are sets of facts; re-inserting the same fact does not
  // create a conflict under the paper's key semantics.
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
  Database db(&schema);
  db.Insert("r", {Value(1), Value(10)});
  db.Insert("r", {Value(1), Value(10)});
  EXPECT_TRUE(db.SatisfiesKeys());
}

TEST(DatabaseTest, RelationsWithoutKeysNeverConflict) {
  Schema schema;
  schema.AddRelation(RelationSchema("log", {{"msg", ValueType::kString}}));
  Database db(&schema);
  db.Insert("log", {Value("a")});
  db.Insert("log", {Value("a")});
  EXPECT_TRUE(db.SatisfiesKeys());
}

TEST(DatabaseTest, CloneIsDeepAndIndependent) {
  EmployeeFixture fx;
  Database copy = fx.db->Clone();
  copy.Insert("employee", {Value(3), Value("Pat"), Value("HR")});
  EXPECT_EQ(copy.NumFacts(), 5u);
  EXPECT_EQ(fx.db->NumFacts(), 4u);
}

TEST(DatabaseDeathTest, ArityMismatchAborts) {
  EmployeeFixture fx;
  EXPECT_DEATH(fx.db->Insert("employee", {Value(1)}), "employee");
}

}  // namespace
}  // namespace cqa
