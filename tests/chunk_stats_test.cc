#include "storage/chunk_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/audit.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace cqa {
namespace {

TEST(ChunkStatsTest, BoundsAndHistogramOverInts) {
  std::vector<int64_t> values = {10, 4, 7, 4, 25};
  ChunkColumnStats stats =
      BuildChunkColumnStats(Segment::SealInts(std::move(values)));
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.min, Value(int64_t{4}));
  EXPECT_EQ(stats.max, Value(int64_t{25}));
  ASSERT_TRUE(stats.has_histogram);
  size_t total = 0;
  for (size_t b = 0; b < ChunkColumnStats::kHistogramBins; ++b) {
    total += stats.bins[b];
  }
  EXPECT_EQ(total, 5u);
  // Present values may be contained; out-of-range values are proven absent.
  EXPECT_TRUE(stats.MayContainEqual(Value(int64_t{4})));
  EXPECT_TRUE(stats.MayContainEqual(Value(int64_t{25})));
  EXPECT_FALSE(stats.MayContainEqual(Value(int64_t{3})));
  EXPECT_FALSE(stats.MayContainEqual(Value(int64_t{26})));
  EXPECT_FALSE(stats.MayContainEqual(Value("4")));  // Type mismatch.
}

TEST(ChunkStatsTest, EmptySegmentIsInvalid) {
  ChunkColumnStats stats = BuildChunkColumnStats(Segment::SealInts({}));
  EXPECT_FALSE(stats.valid);
  EXPECT_FALSE(stats.MayContainEqual(Value(int64_t{0})));
}

TEST(ChunkStatsTest, DictionarySegmentHasExactDistinct) {
  std::vector<std::string> values = {"b", "a", "b", "a", "c", "c"};
  ChunkColumnStats stats =
      BuildChunkColumnStats(Segment::SealStrings(std::move(values)));
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.distinct, 3u);
  EXPECT_EQ(stats.min, Value("a"));
  EXPECT_EQ(stats.max, Value("c"));
  // Strings keep bounds only — no histogram.
  EXPECT_FALSE(stats.has_histogram);
  EXPECT_TRUE(stats.MayContainEqual(Value("b")));
  EXPECT_FALSE(stats.MayContainEqual(Value("d")));
}

TEST(ChunkStatsTest, ExtremeIntRangeDoesNotOverflow) {
  // min + max overflow naive (max-min) width arithmetic; the histogram
  // must still bucket both ends within range.
  std::vector<int64_t> values = {INT64_MIN, 0, INT64_MAX};
  ChunkColumnStats stats =
      BuildChunkColumnStats(Segment::SealInts(std::move(values)));
  ASSERT_TRUE(stats.valid);
  ASSERT_TRUE(stats.has_histogram);
  EXPECT_TRUE(stats.MayContainEqual(Value(INT64_MIN)));
  EXPECT_TRUE(stats.MayContainEqual(Value(INT64_MAX)));
  EXPECT_TRUE(stats.MayContainEqual(Value(int64_t{0})));
}

TEST(ChunkStatsTest, DoubleHistogram) {
  std::vector<double> values = {0.0, 0.25, 0.5, 1.0};
  ChunkColumnStats stats =
      BuildChunkColumnStats(Segment::SealDoubles(std::move(values)));
  ASSERT_TRUE(stats.valid);
  ASSERT_TRUE(stats.has_histogram);
  for (double v : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_TRUE(stats.MayContainEqual(Value(v)));
  }
  EXPECT_FALSE(stats.MayContainEqual(Value(1.5)));
}

// A NaN orders against nothing, so it must not decide the bounds: with
// one first in the chunk, std::minmax_element kept it as the minimum and
// missed the larger values after it, and the statistics then "proved"
// that the chunk held no 7.0 or infinity. (Found by the .tbl fuzzer: a
// loaded NaN failed audit::CheckColumnarStorage.)
TEST(ChunkStatsTest, NanDoesNotHideTheBounds) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& values :
       {std::vector<double>{-kNan, kInf, -kInf, 0.5, 7.0, kNan, -0.0},
        std::vector<double>{kNan, 1.0, 7.0, kInf, -2.0},
        std::vector<double>{1.0, kNan, -kInf, 7.0},
        std::vector<double>{-kNan, kNan}}) {
    ChunkColumnStats stats =
        BuildChunkColumnStats(Segment::SealDoubles(std::vector<double>(values)));
    double lo = kNan, hi = kNan;  // Over the non-NaN values.
    for (double v : values) {
      if (std::isnan(v)) continue;
      EXPECT_TRUE(stats.MayContainEqual(Value(v))) << v;
      EXPECT_FALSE(Value(v) < stats.min || stats.max < Value(v)) << v;
      lo = std::isnan(lo) ? v : std::min(lo, v);
      hi = std::isnan(hi) ? v : std::max(hi, v);
    }
    // The bounds are tight, so they still prune around the NaN.
    if (std::isnan(lo)) {
      EXPECT_TRUE(std::isnan(stats.min.AsDouble()));
    } else {
      EXPECT_EQ(stats.min, Value(lo));
      EXPECT_EQ(stats.max, Value(hi));
    }
  }

  RelationSchema rs("r", {{"x", ValueType::kDouble}});
  Schema schema;
  schema.AddRelation(rs);
  Database db(&schema);
  for (double v : {kNan, kInf, 1.0, kNan, 0.0}) db.Insert("r", {Value(v)});
  db.SealStorage();
  std::string why;
  EXPECT_TRUE(audit::CheckColumnarStorage(db, &why)) << why;
  size_t hits = 0;
  db.relation(0).ScanMatching({0}, {Value(kInf)}, [&](size_t) {
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 1u);
}

/// The load-bearing property: for any chunked relation and any probe
/// value (present or absent), the pruned ScanMatching returns exactly the
/// rows a full row-scan oracle finds. Statistics may waste a scan, never
/// drop a match.
TEST(ChunkStatsPropertyTest, PruningNeverDropsAMatchingChunk) {
  RelationSchema rs("r", {{"k", ValueType::kInt},
                          {"grp", ValueType::kInt},
                          {"tag", ValueType::kString},
                          {"w", ValueType::kDouble}},
                    {0});
  Rng rng(987654321);
  for (int trial = 0; trial < 20; ++trial) {
    // Small chunks so every relation spans several plus an unsealed tail.
    Relation rel(&rs, /*chunk_capacity=*/64);
    size_t n = static_cast<size_t>(rng.UniformInt(0, 400));
    for (size_t i = 0; i < n; ++i) {
      rel.Insert({Value(rng.UniformInt(0, 300)),
                  Value(rng.UniformInt(0, 7)),
                  Value("t" + std::to_string(rng.UniformInt(0, 15))),
                  Value(static_cast<double>(rng.UniformInt(0, 50)) / 4.0)});
    }
    if (rng.Bernoulli(0.5)) rel.SealTail();

    for (int probe = 0; probe < 40; ++probe) {
      // Random conjunct set over random columns, values biased into the
      // stored ranges so both hits and misses occur.
      std::vector<size_t> positions;
      Tuple key;
      if (rng.Bernoulli(0.7)) {
        positions.push_back(0);
        key.push_back(Value(rng.UniformInt(0, 320)));
      }
      if (rng.Bernoulli(0.5)) {
        positions.push_back(1);
        key.push_back(Value(rng.UniformInt(0, 8)));
      }
      if (rng.Bernoulli(0.5)) {
        positions.push_back(2);
        key.push_back(Value("t" + std::to_string(rng.UniformInt(0, 17))));
      }
      if (positions.empty()) {
        positions.push_back(3);
        key.push_back(Value(static_cast<double>(rng.UniformInt(0, 55)) / 4.0));
      }

      std::vector<size_t> expected;
      for (size_t row = 0; row < rel.size(); ++row) {
        bool match = true;
        for (size_t i = 0; i < positions.size() && match; ++i) {
          match = rel.ValueAt(row, positions[i]) == key[i];
        }
        if (match) expected.push_back(row);
      }

      std::vector<size_t> actual;
      bool completed = rel.ScanMatching(positions, key, [&](size_t row) {
        actual.push_back(row);
        return true;
      });
      EXPECT_TRUE(completed);
      EXPECT_EQ(actual, expected)
          << "trial " << trial << " probe " << probe << " n=" << n;
    }
  }
}

TEST(ChunkStatsPropertyTest, ScanStopsEarlyWhenAsked) {
  RelationSchema rs("r", {{"k", ValueType::kInt}}, {0});
  Relation rel(&rs, /*chunk_capacity=*/8);
  for (int64_t i = 0; i < 40; ++i) rel.Insert({Value(i % 4)});
  rel.SealTail();
  size_t seen = 0;
  bool completed = rel.ScanMatching({0}, {Value(int64_t{2})}, [&](size_t) {
    ++seen;
    return seen < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 3u);
}

TEST(ChunkStatsPropertyTest, DisjointChunksAreCountedAsPruned) {
  RelationSchema rs("r", {{"k", ValueType::kInt}}, {0});
  Relation rel(&rs, /*chunk_capacity=*/16);
  // Two chunks with disjoint ranges: [0,15] and [1000,1015].
  for (int64_t i = 0; i < 16; ++i) rel.Insert({Value(i)});
  for (int64_t i = 1000; i < 1016; ++i) rel.Insert({Value(i)});
  size_t hits = 0;
  rel.ScanMatching({0}, {Value(int64_t{1005})}, [&](size_t) {
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 1u);
  EXPECT_GE(rel.chunks_pruned(), 1u);
}

TEST(StorageAuditTest, ColumnarStorageInvariantsHoldOnMixedState) {
  Schema schema;
  schema.AddRelation(RelationSchema("r", {{"k", ValueType::kInt},
                                          {"tag", ValueType::kString}},
                                    {0}));
  Database db(&schema);
  Rng rng(42);
  for (int64_t i = 0; i < 10000; ++i) {
    db.Insert("r", {Value(i), Value("t" + std::to_string(i % 5))});
  }
  std::string why;
  // Valid with an open tail (10000 is not a multiple of the chunk size),
  // after sealing, and after appending into a reopened tail.
  EXPECT_TRUE(audit::CheckColumnarStorage(db, &why)) << why;
  db.SealStorage();
  EXPECT_TRUE(audit::CheckColumnarStorage(db, &why)) << why;
  db.Insert("r", {Value(int64_t{10000}), Value("t0")});
  EXPECT_TRUE(audit::CheckColumnarStorage(db, &why)) << why;
}

}  // namespace
}  // namespace cqa
