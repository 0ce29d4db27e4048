#include "gen/noise.h"

#include <gtest/gtest.h>

#include <set>

#include "cqa/preprocess.h"
#include "gen/tpch.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/block_index.h"
#include "test_util.h"

namespace cqa {
namespace {

struct SimpleFixture {
  SimpleFixture() {
    schema.AddRelation(RelationSchema(
        "r", {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
    db = std::make_unique<Database>(&schema);
    for (int k = 0; k < 20; ++k) {
      db->Insert("r", {Value(k), Value(k % 5)});
    }
  }
  Schema schema;
  std::unique_ptr<Database> db;
};

TEST(NoiseTest, AddsConflictsOnlyOnQueryRelevantFacts) {
  SimpleFixture fx;
  // The query touches only v = 0 facts (keys 0, 5, 10, 15).
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, 0).");
  Rng rng(1);
  NoiseOptions options;
  options.p = 1.0;
  NoiseStats stats = AddQueryAwareNoise(fx.db.get(), q, options, rng);
  EXPECT_EQ(stats.relevant_facts, 4u);
  EXPECT_EQ(stats.selected_facts, 4u);
  EXPECT_GT(stats.facts_added, 0u);

  BlockIndex index = BlockIndex::Build(*fx.db);
  const RelationBlockIndex& rbi = index.relation(0);
  // Only blocks with key % 5 == 0 may be non-singleton.
  for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
    if (rbi.block(bid).size() > 1) {
      int64_t key = fx.db->relation("r").row(rbi.block(bid)[0])[0].AsInt();
      EXPECT_EQ(key % 5, 0) << "unexpected conflict on key " << key;
    }
  }
}

TEST(NoiseTest, BlockSizesWithinBounds) {
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, V).");
  Rng rng(2);
  NoiseOptions options;
  options.p = 1.0;
  options.min_block_size = 2;
  options.max_block_size = 5;
  AddQueryAwareNoise(fx.db.get(), q, options, rng);
  BlockIndex index = BlockIndex::Build(*fx.db);
  const RelationBlockIndex& rbi = index.relation(0);
  size_t conflicting = 0;
  for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
    size_t size = rbi.block(bid).size();
    if (size > 1) {
      ++conflicting;
      EXPECT_GE(size, 2u);
      EXPECT_LE(size, 5u);
    }
  }
  EXPECT_EQ(conflicting, 20u);  // p = 1: every relevant fact selected.
}

TEST(NoiseTest, FractionSelectedMatchesP) {
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, V).");
  Rng rng(3);
  NoiseOptions options;
  options.p = 0.5;
  NoiseStats stats = AddQueryAwareNoise(fx.db.get(), q, options, rng);
  EXPECT_EQ(stats.selected_facts, 10u);  // ⌈0.5 · 20⌉.
  BlockIndex index = BlockIndex::Build(*fx.db);
  EXPECT_EQ(index.relation(0).NumConflictingBlocks(), 10u);
}

TEST(NoiseTest, CeilingOnSmallSelections) {
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(V) :- r(0, V).");
  // One relevant fact; ⌈0.1 · 1⌉ = 1 selected.
  Rng rng(4);
  NoiseOptions options;
  options.p = 0.1;
  NoiseStats stats = AddQueryAwareNoise(fx.db.get(), q, options, rng);
  EXPECT_EQ(stats.relevant_facts, 1u);
  EXPECT_EQ(stats.selected_facts, 1u);
}

TEST(NoiseTest, NoDuplicateFactsInserted) {
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, V).");
  Rng rng(5);
  NoiseOptions options;
  options.p = 1.0;
  AddQueryAwareNoise(fx.db.get(), q, options, rng);
  std::set<Tuple> facts;
  const Relation& rel = fx.db->relation("r");
  for (size_t row = 0; row < rel.size(); ++row) {
    EXPECT_TRUE(facts.insert(rel.row(row)).second)
        << "duplicate " << TupleToString(rel.row(row));
  }
}

TEST(NoiseTest, OriginalFactsAreKept) {
  SimpleFixture fx;
  std::vector<Tuple> original;
  for (size_t row = 0; row < fx.db->relation("r").size(); ++row) {
    original.push_back(fx.db->relation("r").row(row));
  }
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, V).");
  Rng rng(6);
  NoiseOptions options;
  options.p = 0.7;
  AddQueryAwareNoise(fx.db.get(), q, options, rng);
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(fx.db->relation("r").row(i), original[i]);
  }
}

TEST(NoiseTest, NonKeyValuesComeFromDonors) {
  // Join preservation: every injected non-key value must already occur as
  // the non-key value of some original fact.
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, V).");
  Rng rng(7);
  NoiseOptions options;
  options.p = 1.0;
  AddQueryAwareNoise(fx.db.get(), q, options, rng);
  const Relation& rel = fx.db->relation("r");
  for (size_t row = 20; row < rel.size(); ++row) {
    int64_t v = rel.row(row)[1].AsInt();
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
  }
}

TEST(NoiseTest, QueryAnswersOnlyGrow) {
  // Adding facts can only add homomorphisms; original answers survive.
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(K) :- r(K, V).");
  CqEvaluator before_eval(fx.db.get());
  std::vector<Tuple> before = before_eval.Evaluate(q);
  Rng rng(8);
  NoiseOptions options;
  options.p = 0.8;
  AddQueryAwareNoise(fx.db.get(), q, options, rng);
  CqEvaluator after_eval(fx.db.get());
  std::vector<Tuple> after = after_eval.Evaluate(q);
  std::set<Tuple> after_set(after.begin(), after.end());
  for (const Tuple& t : before) {
    EXPECT_TRUE(after_set.count(t) > 0) << TupleToString(t);
  }
}

TEST(ObliviousNoiseTest, SelectsFromWholeDatabase) {
  SimpleFixture fx;
  Rng rng(21);
  NoiseOptions options;
  options.p = 1.0;
  NoiseStats stats = AddObliviousNoise(fx.db.get(), options, rng);
  EXPECT_EQ(stats.relevant_facts, 20u);
  EXPECT_EQ(stats.selected_facts, 20u);
  BlockIndex index = BlockIndex::Build(*fx.db);
  EXPECT_EQ(index.relation(0).NumConflictingBlocks(), 20u);
}

TEST(ObliviousNoiseTest, MostlyMissesSelectiveQueries) {
  // The paper's argument for query-awareness: with a selective query,
  // oblivious noise rarely lands on query-relevant facts.
  SimpleFixture fx;
  ConjunctiveQuery q = MustParseCq(fx.schema, "Q(V) :- r(0, V).");
  Rng rng(22);
  NoiseOptions options;
  options.p = 0.1;  // 2 of 20 facts.
  AddObliviousNoise(fx.db.get(), options, rng);
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  size_t conflicting = 0;
  for (const AnswerSynopsis& as : pre.answers()) {
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      if (b.size > 1) ++conflicting;
    }
  }
  // At most the single relevant block can conflict, and with p = 0.1 it
  // usually does not (seed-pinned here: it does not).
  EXPECT_EQ(conflicting, 0u);
}

TEST(ObliviousNoiseTest, SkipsKeylessRelations) {
  Schema schema;
  schema.AddRelation(RelationSchema("log", {{"m", ValueType::kString}}));
  Database db(&schema);
  db.Insert("log", {Value("x")});
  Rng rng(23);
  NoiseOptions options;
  options.p = 1.0;
  NoiseStats stats = AddObliviousNoise(&db, options, rng);
  EXPECT_EQ(stats.relevant_facts, 0u);
  EXPECT_EQ(stats.facts_added, 0u);
}

TEST(NoiseTest, TpchEndToEnd) {
  TpchOptions tpch;
  tpch.scale_factor = 0.0005;
  Dataset d = GenerateTpch(tpch);
  ConjunctiveQuery q = MustParseCq(
      *d.schema,
      "Q(CK) :- customer(CK, CN, CA, NK, CP, CB, 'BUILDING', CC),"
      " orders(OK, CK, OS, TP, OD, OP, CL, SP, OC).");
  ASSERT_TRUE(CqEvaluator(d.db.get()).HasAnswer(q));
  EXPECT_TRUE(d.db->SatisfiesKeys());
  Rng rng(9);
  NoiseOptions options;
  options.p = 0.5;
  NoiseStats stats = AddQueryAwareNoise(d.db.get(), q, options, rng);
  EXPECT_GT(stats.facts_added, 0u);
  EXPECT_FALSE(d.db->SatisfiesKeys());
  // The synopsis set of the noisy database must now contain conflicts.
  PreprocessResult pre = BuildSynopses(*d.db, q);
  bool has_conflicting_block = false;
  for (const AnswerSynopsis& as : pre.answers()) {
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      if (b.size > 1) has_conflicting_block = true;
    }
  }
  EXPECT_TRUE(has_conflicting_block);
}

}  // namespace
}  // namespace cqa
