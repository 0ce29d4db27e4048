#include "cqa/preprocess.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

TEST(PreprocessTest, ExampleOneBooleanQuery) {
  // Example 1.1: do employees 1 and 2 work in the same department?
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  ASSERT_EQ(result.NumAnswers(), 1u);  // The empty tuple.
  EXPECT_TRUE(result.answers()[0].answer.empty());
  const Synopsis& s = result.answers()[0].synopsis;
  // Two consistent images: (Bob-IT, Alice-IT) and (Bob-IT, Tim-IT);
  // both touch both blocks.
  EXPECT_EQ(s.NumImages(), 2u);
  EXPECT_EQ(s.NumBlocks(), 2u);
  EXPECT_EQ(result.stats().num_homomorphisms, 2u);
}

TEST(PreprocessTest, InconsistentImagesAreFiltered) {
  // Q asks for two distinct names with the same id: every homomorphism
  // maps both atoms into one block, and is consistent only if it picks
  // the same fact twice — those keep a single image fact.
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(I, 'Alice', D1), employee(I, 'Tim', D2).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  // Alice and Tim share id 2 but are different facts in the same block:
  // the only homomorphisms are inconsistent, so there is no synopsis.
  EXPECT_EQ(result.NumAnswers(), 0u);
}

TEST(PreprocessTest, SameFactTwiceIsConsistent) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(I, N, D), employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  ASSERT_EQ(result.NumAnswers(), 1u);
  // Images collapse to single facts: 4 facts -> 4 images.
  EXPECT_EQ(result.answers()[0].synopsis.NumImages(), 4u);
  const Synopsis& synopsis = result.answers()[0].synopsis;
  for (size_t i = 0; i < synopsis.NumImages(); ++i) {
    EXPECT_EQ(synopsis.image(i).size(), 1u);
  }
}

TEST(PreprocessTest, NonBooleanGroupsByAnswer) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  // Answers with positive frequency: Bob, Alice, Tim.
  EXPECT_EQ(result.NumAnswers(), 3u);
  size_t total_images = 0;
  for (const AnswerSynopsis& as : result.answers()) {
    total_images += as.synopsis.NumImages();
  }
  EXPECT_EQ(total_images, 4u);  // Bob has two witnessing facts.
  EXPECT_EQ(result.stats().num_images, 4u);
  EXPECT_EQ(result.stats().num_distinct_images, 4u);
}

TEST(PreprocessTest, BalanceDefinition) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  // |syn| = 3 answers, |∪H_i| = 4 images.
  EXPECT_NEAR(result.Balance(), 3.0 / 4.0, 1e-12);
}

TEST(PreprocessTest, BalanceOfEmptyQueryIsZero) {
  EmployeeFixture fx;
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, 'LEGAL').");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  EXPECT_EQ(result.NumAnswers(), 0u);
  EXPECT_DOUBLE_EQ(result.Balance(), 0.0);
}

TEST(PreprocessTest, BlockSizesComeFromDatabase) {
  EmployeeFixture fx;
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q() :- employee(1, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  ASSERT_EQ(result.NumAnswers(), 1u);
  const Synopsis& s = result.answers()[0].synopsis;
  ASSERT_EQ(s.NumBlocks(), 1u);
  EXPECT_EQ(s.blocks()[0].size, 2u);  // Bob's block has two facts.
}

TEST(PreprocessTest, ImageFactRefsRecoverFacts) {
  EmployeeFixture fx;
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q() :- employee(2, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  std::vector<FactRef> facts = result.ImageFactRefs();
  ASSERT_EQ(facts.size(), 2u);  // Alice and Tim.
  EXPECT_EQ(fx.db->FactTuple(facts[0])[0], Value(2));
  EXPECT_EQ(fx.db->FactTuple(facts[1])[0], Value(2));
}

TEST(PreprocessTest, RelativeFrequencyFromSynopsisMatchesDefinition) {
  // R(H, B) of the Example 1.1 synopsis must be 0.5 (2 of 4 repairs).
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  const Synopsis& s = result.answers()[0].synopsis;
  // Enumerate db(B): block sizes 2 and 2 -> 4 databases, 2 contain an
  // image ((IT, Alice-IT) and (IT, Tim-IT)).
  size_t hits = 0;
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t b = 0; b < 2; ++b) {
      if (s.AnyImageContainedIn({a, b})) ++hits;
    }
  }
  EXPECT_EQ(hits, 2u);
}

// r(k, x) with key k: rows (1, a), (2, b), (3, b), (2, a) put both
// answers' facts in block k = 2, a conflict block. Answer a reaches it
// second and answer b first, so each synopsis numbers it differently,
// whether the images are known distinct (one atom) or deduplicated (the
// atom twice).
TEST(PreprocessTest, BlockSharedByTwoAnswersIsNumberedPerAnswer) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kInt}, {"x", ValueType::kString}}, {0}));
  Database db(&schema);
  db.Insert("r", {Value(1), Value("a")});
  db.Insert("r", {Value(2), Value("b")});
  db.Insert("r", {Value(3), Value("b")});
  db.Insert("r", {Value(2), Value("a")});
  for (const char* text :
       {"Q(X) :- r(K, X).", "Q(X) :- r(K, X), r(K, X)."}) {
    SCOPED_TRACE(text);
    const PreprocessResult result =
        BuildSynopses(db, MustParseCq(schema, text));
    ASSERT_EQ(result.NumAnswers(), 2u);
    const Synopsis& a = result.answers()[0].synopsis;
    const Synopsis& b = result.answers()[1].synopsis;
    EXPECT_EQ(result.answers()[0].answer, Tuple({Value("a")}));
    // Database blocks: k = 1 is block 0, k = 2 block 1 (two facts), k = 3
    // block 2.
    ASSERT_EQ(a.NumBlocks(), 2u);
    EXPECT_EQ(a.blocks()[0].block_id, 0u);
    EXPECT_EQ(a.blocks()[1].block_id, 1u);
    EXPECT_EQ(a.blocks()[1].size, 2u);
    ASSERT_EQ(b.NumBlocks(), 2u);
    EXPECT_EQ(b.blocks()[0].block_id, 1u);
    EXPECT_EQ(b.blocks()[0].size, 2u);
    EXPECT_EQ(b.blocks()[1].block_id, 2u);
    // Local block 1 of a and local block 0 of b are the shared block.
    EXPECT_EQ(a.DebugString(), "Synopsis{blocks=[1, 2], images=[{0:0}, {1:1}]}");
    EXPECT_EQ(b.DebugString(), "Synopsis{blocks=[2, 1], images=[{0:0}, {1:0}]}");
  }
}

// A double answer variable groups by value, as SlotEquals compares: -0.0
// and +0.0 are one answer, whose tuple is the first seen, and a NaN equals
// nothing, so each NaN homomorphism is an answer of its own. The string
// variable beside it does not change that.
TEST(PreprocessTest, DoubleAnswersGroupByValue) {
  Schema schema;
  schema.AddRelation(RelationSchema("d",
                                    {{"k", ValueType::kInt},
                                     {"x", ValueType::kDouble},
                                     {"s", ValueType::kString}},
                                    {0}));
  Database db(&schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  db.Insert("d", {Value(1), Value(-0.0), Value("a")});
  db.Insert("d", {Value(2), Value(nan), Value("a")});
  db.Insert("d", {Value(3), Value(0.0), Value("a")});
  db.Insert("d", {Value(4), Value(nan), Value("a")});
  for (const char* text : {"Q(X) :- d(K, X, S).", "Q(X, S) :- d(K, X, S)."}) {
    SCOPED_TRACE(text);
    const PreprocessResult result =
        BuildSynopses(db, MustParseCq(schema, text));
    ASSERT_EQ(result.NumAnswers(), 3u);
    const std::vector<AnswerSynopsis>& answers = result.answers();
    EXPECT_TRUE(std::signbit(answers[0].answer[0].AsDouble()));
    EXPECT_EQ(answers[0].answer[0].AsDouble(), 0.0);
    EXPECT_EQ(answers[0].synopsis.NumImages(), 2u);
    for (size_t i = 1; i < 3; ++i) {
      EXPECT_TRUE(std::isnan(answers[i].answer[0].AsDouble()));
      ASSERT_EQ(answers[i].synopsis.NumImages(), 1u);
      EXPECT_EQ(answers[i].synopsis.blocks()[0].block_id, 2 * i - 1);
    }
    EXPECT_EQ(result.stats().num_images, 4u);
  }
}

TEST(PreprocessTest, StatsTrackTime) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  EXPECT_GE(result.stats().seconds, 0.0);
}

}  // namespace
}  // namespace cqa
