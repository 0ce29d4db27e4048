#include "storage/block_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/rng.h"
#include "cqa/preprocess.h"
#include "cqa/rewriting.h"
#include "obs/metrics.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/audit.h"
#include "storage/key_groups.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

std::vector<size_t> Rows(std::span<const uint32_t> block) {
  return std::vector<size_t>(block.begin(), block.end());
}

/// The Q_R view example of Appendix C: R(A, B) with key {A} and facts
/// R(a1,b1) R(a1,b2) R(a1,b3) R(a2,c1) R(a2,c2).
struct AppendixCFixture {
  AppendixCFixture() {
    schema.AddRelation(RelationSchema(
        "r", {{"a", ValueType::kString}, {"b", ValueType::kString}}, {0}));
    db = std::make_unique<Database>(&schema);
    db->Insert("r", {Value("a1"), Value("b1")});
    db->Insert("r", {Value("a1"), Value("b2")});
    db->Insert("r", {Value("a1"), Value("b3")});
    db->Insert("r", {Value("a2"), Value("c1")});
    db->Insert("r", {Value("a2"), Value("c2")});
  }
  Schema schema;
  std::unique_ptr<Database> db;
};

TEST(BlockIndexTest, AppendixCAnnotations) {
  AppendixCFixture fx;
  RelationBlockIndex index = RelationBlockIndex::Build(fx.db->relation("r"));
  ASSERT_EQ(index.NumBlocks(), 2u);
  // Rows 0-2 form block 0 (kcnt 3), rows 3-4 block 1 (kcnt 2).
  for (size_t row = 0; row < 3; ++row) {
    EXPECT_EQ(index.annotation(row).block_id, 0u);
    EXPECT_EQ(index.annotation(row).tuple_id, row);
    EXPECT_EQ(index.annotation(row).block_size, 3u);
  }
  for (size_t row = 3; row < 5; ++row) {
    EXPECT_EQ(index.annotation(row).block_id, 1u);
    EXPECT_EQ(index.annotation(row).tuple_id, row - 3);
    EXPECT_EQ(index.annotation(row).block_size, 2u);
  }
  EXPECT_EQ(Rows(index.block(0)), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(Rows(index.block(1)), (std::vector<size_t>{3, 4}));
}

// --- Every grouping path against a naive map oracle ---------------------

/// One relation per key shape; each gets a value column so facts that
/// share a key differ. Ascending all-int keys take the sorted path, the
/// rest the grouping kernel.
enum Shape {
  kIntShuffled,     // Single int key, each value twice, shuffled.
  kIntAscending,    // Single int key, strictly ascending: sorted path.
  kIntLastSwapped,  // Ascending except the last pair: passes chunk stats
                    // when that pair shares a chunk or straddles the
                    // tail, and the per-value check rejects it.
  kIntLastRepeated, // Ascending, but the last row repeats the key before
                    // it: a duplicate only the per-value check sees
                    // unless a sealed chunk boundary splits the pair.
  kIntAllEqual,     // Single int key, one value: one block of every row.
  kString,          // Single string key: dictionary and plain chunks.
  kIntPairAscending,
  kIntPairShuffled,
  kIntTripleAscending,  // Three int columns, as inventory's key; the first
                        // repeats across chunk boundaries.
  kIntTripleShuffled,   // Three int columns, each key twice, shuffled.
  kThreeColumnKey,  // (int, string, int).
  kKeyless,         // Whole tuple is the key; duplicate facts share one.
  kNumShapes,
};

const char* ShapeName(size_t shape) {
  static const char* const kNames[] = {
      "int_shuffled",         "int_ascending",       "int_last_swapped",
      "int_last_repeated",    "int_all_equal",       "string",
      "int_pair_ascending",   "int_pair_shuffled",   "int_triple_ascending",
      "int_triple_shuffled",  "three_column_key",    "keyless"};
  return kNames[shape];
}

Schema MakeShapeSchema() {
  const ValueType kInt = ValueType::kInt;
  const ValueType kStr = ValueType::kString;
  Schema schema;
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    std::vector<Attribute> attrs;
    std::vector<size_t> key;
    switch (shape) {
      case kString:
        attrs = {{"k", kStr}, {"v", kInt}};
        key = {0};
        break;
      case kIntPairAscending:
      case kIntPairShuffled:
        attrs = {{"a", kInt}, {"b", kInt}, {"v", kInt}};
        key = {0, 1};
        break;
      case kIntTripleAscending:
      case kIntTripleShuffled:
        attrs = {{"a", kInt}, {"b", kInt}, {"c", kInt}, {"v", kInt}};
        key = {0, 1, 2};
        break;
      case kThreeColumnKey:
        attrs = {{"a", kInt}, {"s", kStr}, {"b", kInt}, {"v", kInt}};
        key = {0, 1, 2};
        break;
      case kKeyless:
        attrs = {{"a", kInt}, {"s", kStr}};
        break;
      default:
        attrs = {{"k", kInt}, {"v", kInt}};
        key = {0};
        break;
    }
    schema.AddRelation(RelationSchema(ShapeName(shape), attrs, key));
  }
  return schema;
}

/// Fills every shape's relation with `n` rows.
void FillShapes(Database* db, size_t n, Rng& rng) {
  constexpr size_t kChunk = Relation::kDefaultChunkCapacity;
  std::vector<int64_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<int64_t>(i);
  rng.Shuffle(perm);
  for (size_t row = 0; row < n; ++row) {
    const int64_t r = static_cast<int64_t>(row);
    const int64_t x = perm[row];
    int64_t swapped = r;
    if (n >= 2 && row + 2 >= n) swapped = row + 2 == n ? r + 1 : r - 1;
    const int64_t repeated = n >= 2 && row + 1 == n ? r - 1 : r;
    // Even chunks repeat 50 + chunk keys, so each has its own dictionary;
    // odd chunks hold distinct keys (plain), of which the first few join
    // blocks that earlier chunks opened.
    const size_t chunk = row / kChunk;
    const size_t key_id = chunk % 2 == 0 ? row % (50 + chunk) : row % kChunk;
    const std::string key = "d" + std::to_string(key_id);
    db->Insert(kIntShuffled, {Value(x / 2), Value(r)});
    db->Insert(kIntAscending, {Value(3 * r + 1), Value(r)});
    db->Insert(kIntLastSwapped, {Value(3 * swapped + 1), Value(r)});
    db->Insert(kIntLastRepeated, {Value(3 * repeated + 1), Value(r)});
    db->Insert(kIntAllEqual, {Value(7), Value(r)});
    db->Insert(kString, {Value(key), Value(r)});
    db->Insert(kIntPairAscending, {Value(r / 3), Value(r % 3), Value(r)});
    db->Insert(kIntPairShuffled, {Value(x / 4), Value(x % 2), Value(r)});
    db->Insert(kIntTripleAscending,
               {Value(r / 3), Value(r % 3 / 2), Value(r % 3 % 2), Value(r)});
    db->Insert(kIntTripleShuffled,
               {Value(x / 8), Value(x % 2), Value(x / 2 % 2), Value(r)});
    db->Insert(kThreeColumnKey,
               {Value(x % 10), Value("s" + std::to_string(x % 7)),
                Value(x / 70), Value(r)});
    db->Insert(kKeyless, {Value(x % 5), Value("t" + std::to_string(x / 3))});
  }
}

/// The positions a relation's blocks group by: its key, or every column.
std::vector<size_t> GroupingPositions(const RelationSchema& rs) {
  if (rs.has_key()) return rs.key_positions();
  std::vector<size_t> all;
  for (size_t pos = 0; pos < rs.arity(); ++pos) all.push_back(pos);
  return all;
}

/// The naive oracle: rows grouped by key tuple in a std::map, block ids
/// in first-appearance order, tuple ids in row order within a block.
struct Oracle {
  explicit Oracle(const Relation& rel) {
    const std::vector<size_t> positions = GroupingPositions(rel.schema());
    std::map<Tuple, size_t> block_of_key;
    for (size_t row = 0; row < rel.size(); ++row) {
      auto [it, inserted] = block_of_key.emplace(
          ProjectTuple(rel.row(row), positions), blocks.size());
      if (inserted) {
        blocks.emplace_back();
        keys.push_back(it->first);
      }
      block_of.push_back(it->second);
      tid_of.push_back(blocks[it->second].size());
      blocks[it->second].push_back(row);
    }
  }
  std::vector<std::vector<size_t>> blocks;
  std::vector<Tuple> keys;  // Per block.
  std::vector<size_t> block_of;
  std::vector<size_t> tid_of;
};

void ExpectMatchesOracle(const Relation& rel) {
  const Oracle oracle(rel);
  const RelationBlockIndex index = RelationBlockIndex::Build(rel);
  ASSERT_EQ(index.NumBlocks(), oracle.blocks.size());
  size_t conflicting = 0;
  for (size_t bid = 0; bid < oracle.blocks.size(); ++bid) {
    ASSERT_EQ(Rows(index.block(bid)), oracle.blocks[bid]) << "block " << bid;
    if (oracle.blocks[bid].size() > 1) ++conflicting;
  }
  EXPECT_EQ(index.NumConflictingBlocks(), conflicting);
  for (size_t row = 0; row < rel.size(); ++row) {
    const BlockAnnotation ann = index.annotation(row);
    ASSERT_EQ(ann.block_id, oracle.block_of[row]) << "row " << row;
    ASSERT_EQ(ann.tuple_id, oracle.tid_of[row]) << "row " << row;
    ASSERT_EQ(ann.block_size, oracle.blocks[ann.block_id].size())
        << "row " << row;
  }
  // The kernel groups the same way on inputs the sorted path takes, and
  // the join index on the same positions finds each block by its key.
  const std::vector<size_t> positions = GroupingPositions(rel.schema());
  const KeyGroups groups =
      KeyGroups::Build(rel, positions, KeyGroups::NanRows::kOwnGroup);
  ASSERT_EQ(groups.NumGroups(), oracle.blocks.size());
  for (size_t bid = 0; bid < oracle.blocks.size(); ++bid) {
    ASSERT_EQ(Rows(groups.group(bid)), oracle.blocks[bid]) << "group " << bid;
  }
  const RelationIndex join = RelationIndex::Build(rel, positions);
  ASSERT_EQ(join.NumKeys(), oracle.blocks.size());
  for (size_t bid = 0; bid < oracle.blocks.size(); ++bid) {
    ASSERT_EQ(Rows(join.Lookup(oracle.keys[bid])), oracle.blocks[bid])
        << "block " << bid;
  }
}

TEST(BlockIndexTest, EveryGroupingPathMatchesMapOracle) {
  constexpr size_t kChunk = Relation::kDefaultChunkCapacity;
  const Schema schema = MakeShapeSchema();
  for (size_t n : {size_t{0}, size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                   3 * kChunk + 1}) {
    for (bool seal : {true, false}) {
      SCOPED_TRACE("rows " + std::to_string(n) +
                   (seal ? " sealed" : " unsealed tail"));
      Rng rng(n + 1);
      Database db(&schema);
      FillShapes(&db, n, rng);
      if (seal) db.SealStorage();
      for (size_t shape = 0; shape < kNumShapes; ++shape) {
        SCOPED_TRACE(ShapeName(shape));
        EXPECT_EQ(db.relation(shape).tail_rows() == 0,
                  seal || n % kChunk == 0);
        // Stops at this shape's first mismatch, then checks the next one.
        ExpectMatchesOracle(db.relation(shape));
      }
      std::string why;
      EXPECT_TRUE(audit::CheckBlockPartition(db, *db.block_index(), &why))
          << why;
    }
  }
}

// Double keys keep Value equality: 0.0 and -0.0 share a block, each
// NaN-keyed row is a block of its own, and block ids follow first
// appearance, whether every row is sealed or the last ones sit in the
// tail. One relation is keyless (the whole tuple groups), one keyed.
TEST(BlockIndexTest, DoubleKeysFollowValueEquality) {
  const double nan = std::nan("");
  const std::vector<double> keys = {0.0, nan, -0.0, nan, 1.5, 0.0, 1.5};
  const std::vector<std::vector<size_t>> want = {{0, 2, 5}, {1}, {3}, {4, 6}};
  Schema schema;
  schema.AddRelation(RelationSchema(
      "keyless", {{"x", ValueType::kDouble}, {"y", ValueType::kInt}}));
  schema.AddRelation(RelationSchema(
      "keyed", {{"k", ValueType::kDouble}, {"v", ValueType::kInt}}, {0}));
  for (size_t sealed : {keys.size(), size_t{4}}) {
    SCOPED_TRACE(std::to_string(sealed) + " rows sealed");
    Database db(&schema);
    for (size_t row = 0; row < keys.size(); ++row) {
      db.Insert("keyless", {Value(keys[row]), Value(keys[row] == 1.5 ? 2 : 1)});
      db.Insert("keyed", {Value(keys[row]), Value(static_cast<int>(row))});
      if (row + 1 == sealed) db.SealStorage();
    }
    for (size_t rid = 0; rid < 2; ++rid) {
      SCOPED_TRACE(schema.relation(rid).name());
      EXPECT_EQ(db.relation(rid).tail_rows(), keys.size() - sealed);
      const RelationBlockIndex index =
          RelationBlockIndex::Build(db.relation(rid));
      ASSERT_EQ(index.NumBlocks(), want.size());
      for (size_t bid = 0; bid < want.size(); ++bid) {
        EXPECT_EQ(Rows(index.block(bid)), want[bid]) << "block " << bid;
        for (size_t tid = 0; tid < want[bid].size(); ++tid) {
          const BlockAnnotation ann = index.annotation(want[bid][tid]);
          EXPECT_EQ(ann.block_id, bid);
          EXPECT_EQ(ann.tuple_id, tid);
          EXPECT_EQ(ann.block_size, want[bid].size());
        }
      }
    }
    std::string why;
    EXPECT_TRUE(audit::CheckBlockPartition(db, *db.block_index(), &why))
        << why;
  }
}

TEST(BlockIndexTest, ConflictingBlockCount) {
  AppendixCFixture fx;
  RelationBlockIndex index = RelationBlockIndex::Build(fx.db->relation("r"));
  EXPECT_EQ(index.NumConflictingBlocks(), 2u);
}

TEST(BlockIndexTest, ConsistentRelationHasSingletonBlocksOnly) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
  Database db(&schema);
  db.Insert("r", {Value(1), Value(1)});
  db.Insert("r", {Value(2), Value(1)});
  RelationBlockIndex index = RelationBlockIndex::Build(db.relation("r"));
  EXPECT_EQ(index.NumBlocks(), 2u);
  EXPECT_EQ(index.NumConflictingBlocks(), 0u);
  EXPECT_EQ(index.annotation(0).block_size, 1u);
}

TEST(BlockIndexTest, KeylessRelationUsesWholeTupleAsKey) {
  Schema schema;
  schema.AddRelation(RelationSchema("log", {{"m", ValueType::kString}}));
  Database db(&schema);
  db.Insert("log", {Value("x")});
  db.Insert("log", {Value("y")});
  RelationBlockIndex index = RelationBlockIndex::Build(db.relation("log"));
  EXPECT_EQ(index.NumBlocks(), 2u);
  EXPECT_EQ(index.NumConflictingBlocks(), 0u);
}

TEST(BlockIndexTest, WholeDatabaseIndex) {
  EmployeeFixture fx;
  BlockIndex index = BlockIndex::Build(*fx.db);
  EXPECT_EQ(index.NumRelations(), 1u);
  EXPECT_EQ(index.TotalBlocks(), 2u);
  // All 4 facts live in non-singleton blocks.
  EXPECT_DOUBLE_EQ(index.InconsistencyRatio(*fx.db), 1.0);
}

TEST(BlockIndexTest, InconsistencyRatioPartial) {
  EmployeeFixture fx;
  fx.db->Insert("employee", {Value(3), Value("Sam"), Value("HR")});
  BlockIndex index = BlockIndex::Build(*fx.db);
  EXPECT_DOUBLE_EQ(index.InconsistencyRatio(*fx.db), 4.0 / 5.0);
}

TEST(BlockIndexTest, EmptyDatabase) {
  Schema schema;
  schema.AddRelation(RelationSchema("r", {{"k", ValueType::kInt}}, {0}));
  Database db(&schema);
  BlockIndex index = BlockIndex::Build(db);
  EXPECT_EQ(index.TotalBlocks(), 0u);
  EXPECT_DOUBLE_EQ(index.InconsistencyRatio(db), 0.0);
}

// --- The database's shared index ---------------------------------------

uint64_t IndexBuilds() {
  return obs::Registry::Instance().CounterValue("storage.block_index_builds");
}

/// Builds counted by the obs counter, which CQABENCH_NO_OBS compiles out;
/// the pointer checks next to each use hold either way.
void ExpectBuildsSince(uint64_t before, uint64_t builds) {
#ifndef CQABENCH_NO_OBS
  EXPECT_EQ(IndexBuilds() - before, builds);
#else
  (void)before;
  (void)builds;
#endif
}

TEST(SharedBlockIndexTest, CallsAndSynopsisBuildsShareOneIndex) {
  EmployeeFixture fx;
  const ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  const uint64_t before = IndexBuilds();
  const std::shared_ptr<const BlockIndex> index = fx.db->block_index();
  EXPECT_EQ(fx.db->block_index(), index);
  const PreprocessResult direct = BuildSynopses(*fx.db, q);
  const PreprocessResult via_sql = BuildSynopsesViaRewriting(*fx.db, q);
  EXPECT_EQ(&direct.block_index(), index.get());
  EXPECT_EQ(&via_sql.block_index(), index.get());
  ExpectBuildsSince(before, 1);
}

TEST(SharedBlockIndexTest, InsertDropsTheIndex) {
  EmployeeFixture fx;
  const ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  const PreprocessResult pre = BuildSynopses(*fx.db, q);
  const std::shared_ptr<const BlockIndex> old_index = fx.db->block_index();
  const std::vector<FactRef> refs = pre.ImageFactRefs();

  const uint64_t before = IndexBuilds();
  const FactRef added =
      fx.db->Insert("employee", {Value(2), Value("Ann"), Value("HR")});
  const std::shared_ptr<const BlockIndex> index = fx.db->block_index();
  EXPECT_NE(index, old_index);
  ExpectBuildsSince(before, 1);
  // The new index covers the new row: it joins employee 2's block.
  const BlockAnnotation ann = index->relation(0).annotation(added.row);
  EXPECT_EQ(ann.block_id, 1u);
  EXPECT_EQ(ann.tuple_id, 2u);
  EXPECT_EQ(ann.block_size, 3u);
  EXPECT_EQ(old_index->relation(0).block(1).size(), 2u);
  // The earlier result keeps the index it was built against.
  EXPECT_EQ(&pre.block_index(), old_index.get());
  EXPECT_EQ(pre.ImageFactRefs(), refs);
}

TEST(SharedBlockIndexTest, SealStorageDropsTheIndex) {
  EmployeeFixture fx;
  const ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  const PreprocessResult pre = BuildSynopses(*fx.db, q);
  const std::shared_ptr<const BlockIndex> old_index = fx.db->block_index();
  const std::vector<FactRef> refs = pre.ImageFactRefs();

  const uint64_t before = IndexBuilds();
  fx.db->SealStorage();
  const std::shared_ptr<const BlockIndex> index = fx.db->block_index();
  EXPECT_NE(index, old_index);
  ExpectBuildsSince(before, 1);
  EXPECT_EQ(index->relation(0).NumBlocks(), 2u);
  std::string why;
  EXPECT_TRUE(audit::CheckBlockPartition(*fx.db, *index, &why)) << why;
  EXPECT_EQ(&pre.block_index(), old_index.get());
  EXPECT_EQ(pre.ImageFactRefs(), refs);
}

TEST(SharedBlockIndexTest, MovedAndClonedDatabasesStartWithoutIndex) {
  EmployeeFixture fx;
  const std::shared_ptr<const BlockIndex> index = fx.db->block_index();

  uint64_t before = IndexBuilds();
  const Database clone = fx.db->Clone();
  EXPECT_NE(clone.block_index(), index);
  ExpectBuildsSince(before, 1);

  before = IndexBuilds();
  const Database moved(std::move(*fx.db));
  EXPECT_NE(moved.block_index(), index);
  ExpectBuildsSince(before, 1);
  EXPECT_EQ(moved.block_index()->relation(0).NumBlocks(), 2u);
}

}  // namespace
}  // namespace cqa
