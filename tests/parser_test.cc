#include "query/parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace cqa {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.AddRelation(RelationSchema("employee",
                                    {{"id", ValueType::kInt},
                                     {"name", ValueType::kString},
                                     {"dept", ValueType::kString}},
                                    {0}));
  schema.AddRelation(RelationSchema(
      "score", {{"id", ValueType::kInt}, {"v", ValueType::kDouble}}, {0}));
  return schema;
}

TEST(ParserTest, ParsesSimpleQuery) {
  Schema schema = TestSchema();
  ConjunctiveQuery q;
  std::string error;
  ASSERT_TRUE(ParseCq(schema, "Q(X) :- employee(1, X, D).", &q, &error))
      << error;
  EXPECT_EQ(q.NumAtoms(), 1u);
  EXPECT_EQ(q.answer_vars().size(), 1u);
  EXPECT_EQ(q.atom(0).terms[0].constant(), Value(1));
  EXPECT_TRUE(q.atom(0).terms[1].is_variable());
}

TEST(ParserTest, ParsesBooleanQuery) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(schema, "Q() :- employee(ID, N, 'HR').");
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_EQ(q.atom(0).terms[2].constant(), Value("HR"));
}

TEST(ParserTest, ParsesJoin) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(
      schema, "Q(N, V) :- employee(ID, N, D), score(ID, V).");
  EXPECT_EQ(q.NumAtoms(), 2u);
  EXPECT_EQ(q.NumJoins(), 1u);
  EXPECT_EQ(q.atom(0).terms[0].var(), q.atom(1).terms[0].var());
}

TEST(ParserTest, SharedVariableAcrossSameNamesIsSameVar) {
  Schema schema = TestSchema();
  ConjunctiveQuery q =
      MustParseCq(schema, "Q() :- employee(I, N, D), employee(I, N2, D2).");
  EXPECT_EQ(q.atom(0).terms[0].var(), q.atom(1).terms[0].var());
  EXPECT_NE(q.atom(0).terms[1].var(), q.atom(1).terms[1].var());
}

TEST(ParserTest, LowercaseIdentifierIsStringConstant) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(schema, "Q() :- employee(I, bob, D).");
  EXPECT_EQ(q.atom(0).terms[1].constant(), Value("bob"));
}

TEST(ParserTest, UnderscorePrefixedIsVariable) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(schema, "Q() :- employee(_i, _n, _d).");
  EXPECT_EQ(q.num_vars(), 3u);
}

TEST(ParserTest, IntWidenedToDoubleAttribute) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(schema, "Q() :- score(I, 3).");
  EXPECT_EQ(q.atom(0).terms[1].constant(), Value(3.0));
}

TEST(ParserTest, ParsesDoubleAndNegativeConstants) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(schema, "Q() :- score(-2, 0.06).");
  EXPECT_EQ(q.atom(0).terms[0].constant(), Value(int64_t{-2}));
  EXPECT_EQ(q.atom(0).terms[1].constant(), Value(0.06));
}

TEST(ParserTest, TrailingDotOptional) {
  Schema schema = TestSchema();
  ConjunctiveQuery q = MustParseCq(schema, "Q(X) :- employee(1, X, D)");
  EXPECT_EQ(q.NumAtoms(), 1u);
}

TEST(ParserTest, QuotedStringsMayContainSpaces) {
  Schema schema = TestSchema();
  ConjunctiveQuery q =
      MustParseCq(schema, "Q() :- employee(I, 'Bob Jr', 'H R').");
  EXPECT_EQ(q.atom(0).terms[1].constant(), Value("Bob Jr"));
}

struct BadCase {
  const char* text;
  const char* reason;
};

// Prints a case as its reason, which also names the ctest entry. The default
// printer dumps the bytes of the two pointers, which ASLR changes every run.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.reason; }

class ParserErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  Schema schema = TestSchema();
  ConjunctiveQuery q;
  std::string error;
  EXPECT_FALSE(ParseCq(schema, GetParam().text, &q, &error))
      << GetParam().reason;
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        BadCase{"Q(X) :- ghost(X).", "unknown relation"},
        BadCase{"Q(X) :- employee(X).", "wrong arity"},
        BadCase{"Q(X) :- employee(X, Y, Z, W).", "too many arguments"},
        BadCase{"Q(Z) :- employee(X, Y, D).", "head var not in body"},
        BadCase{"Q(X) :- employee('a', Y, D).", "string where int expected"},
        BadCase{"Q(X) :- employee(1.5, Y, D).", "double where int expected"},
        BadCase{"Q(X) :- employee(1, 2, D).", "int where string expected"},
        BadCase{"Q(X) employee(1, X, D).", "missing turnstile"},
        BadCase{"Q(X) :- employee(1, X, D", "unterminated atom"},
        BadCase{"Q(X) :- employee(1, 'oops, D).", "unterminated string"},
        BadCase{"Q(1) :- employee(1, X, D).", "constant in head"},
        BadCase{"Q(X) :- employee(1, X, D). extra", "trailing input"}));

}  // namespace
}  // namespace cqa
