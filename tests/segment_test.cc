#include "storage/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/chunk_stats.h"

namespace cqa {
namespace {

TEST(SegmentTest, IntRoundTripPlain) {
  // All-distinct ints: 2*distinct > n, so the segment must stay plain.
  std::vector<int64_t> values = {5, -3, 9, 0, 42};
  Segment s = Segment::SealInts(std::vector<int64_t>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(s.type(), ValueType::kInt);
  ASSERT_EQ(s.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
    EXPECT_FALSE(s.ValueEquals(i, Value(values[i] + 1)));
    EXPECT_FALSE(s.ValueEquals(i, Value("5")));
  }
  EXPECT_EQ(s.dict_size(), 0u);
}

TEST(SegmentTest, IntRoundTripDictionary) {
  // Two distinct values over eight rows: 2*2 <= 8 — dictionary-encoded.
  std::vector<int64_t> values = {7, 7, 1, 7, 1, 1, 7, 7};
  Segment s = Segment::SealInts(std::vector<int64_t>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kDictionary);
  EXPECT_EQ(s.dict_size(), 2u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
  }
  // The dictionary is sorted: code order mirrors value order.
  ColumnRun run = s.Run(0);
  ASSERT_EQ(run.dict_size, 2u);
  EXPECT_EQ(run.int_dict[0], 1);
  EXPECT_EQ(run.int_dict[1], 7);
  EXPECT_EQ(s.FindCode(Value(int64_t{1})), 0u);
  EXPECT_EQ(s.FindCode(Value(int64_t{7})), 1u);
  EXPECT_EQ(s.FindCode(Value(int64_t{3})), Segment::kNoCode);
}

TEST(SegmentTest, IntBoundaryStaysPlain) {
  // 2*distinct == n dictionary-encodes; one distinct more stays plain.
  std::vector<int64_t> exactly_half = {1, 1, 2, 2};
  EXPECT_EQ(Segment::SealInts(std::move(exactly_half)).encoding(),
            SegmentEncoding::kDictionary);
  std::vector<int64_t> over_half = {1, 1, 2, 3};
  EXPECT_EQ(Segment::SealInts(std::move(over_half)).encoding(),
            SegmentEncoding::kPlain);
}

TEST(SegmentTest, DoubleRoundTripAlwaysPlain) {
  std::vector<double> values = {0.5, 0.5, 0.5, -1.25};
  Segment s = Segment::SealDoubles(std::vector<double>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kPlain);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
  }
}

TEST(SegmentTest, StringRoundTripDictionary) {
  // Any repeated string triggers dictionary encoding.
  std::vector<std::string> values = {"BUILDING", "AUTO", "BUILDING", "MAIL"};
  Segment s = Segment::SealStrings(std::vector<std::string>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kDictionary);
  EXPECT_EQ(s.dict_size(), 3u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
  }
  ColumnRun run = s.Run(4);
  EXPECT_EQ(run.row0, 4u);
  ASSERT_EQ(run.dict_size, 3u);
  EXPECT_EQ(run.string_dict[0], "AUTO");
  EXPECT_EQ(run.string_dict[1], "BUILDING");
  EXPECT_EQ(run.string_dict[2], "MAIL");
  EXPECT_EQ(s.FindCode(Value("MAIL")), 2u);
  EXPECT_EQ(s.FindCode(Value("TRUCK")), Segment::kNoCode);
}

TEST(SegmentTest, AllDistinctStringsStayPlain) {
  // A dictionary over all-distinct strings would add the code array on
  // top of the same string payload — kept plain by design.
  std::vector<std::string> values = {"a", "b", "c"};
  Segment s = Segment::SealStrings(std::move(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(s.dict_size(), 0u);
  EXPECT_EQ(s.FindCode(Value("a")), Segment::kNoCode);
}

TEST(SegmentTest, SingleValueColumn) {
  std::vector<std::string> values(100, "only");
  Segment s = Segment::SealStrings(std::move(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kDictionary);
  EXPECT_EQ(s.dict_size(), 1u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.ValueEquals(i, Value("only")));
  }
}

TEST(SegmentTest, EmptySegments) {
  EXPECT_EQ(Segment::SealInts({}).size(), 0u);
  EXPECT_EQ(Segment::SealInts({}).encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(Segment::SealStrings({}).size(), 0u);
  EXPECT_EQ(Segment::SealStrings({}).encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(Segment::SealDoubles({}).size(), 0u);
}

TEST(SegmentTest, RunValueAtMatchesGetValue) {
  Rng rng(20240807);
  std::vector<int64_t> ints;
  std::vector<std::string> strings;
  for (size_t i = 0; i < 500; ++i) {
    ints.push_back(rng.UniformInt(0, 9));  // Low cardinality: dictionary.
    strings.push_back("s" + std::to_string(rng.UniformInt(0, 999)));
  }
  Segment si = Segment::SealInts(std::vector<int64_t>(ints));
  Segment ss = Segment::SealStrings(std::vector<std::string>(strings));
  ColumnRun ri = si.Run(17);
  ColumnRun rs = ss.Run(17);
  ASSERT_EQ(ri.length, 500u);
  ASSERT_EQ(rs.length, 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(ri.ValueAt(i), Value(ints[i]));
    EXPECT_EQ(rs.ValueAt(i), Value(strings[i]));
  }
}

TEST(SegmentTest, MemoryBytesShrinksUnderDictionary) {
  // 4096 rows of 16 distinct ints: codes (4B) + dict beats plain (8B).
  std::vector<int64_t> values;
  for (size_t i = 0; i < 4096; ++i) {
    values.push_back(static_cast<int64_t>(i % 16));
  }
  Segment dict = Segment::SealInts(std::vector<int64_t>(values));
  ASSERT_EQ(dict.encoding(), SegmentEncoding::kDictionary);
  EXPECT_LT(dict.MemoryBytes(), 4096 * sizeof(int64_t));
}

// The sort-based seal that the one-pass hash seal replaced, kept as the
// reference: count distinct values by sorting a copy, then build the
// dictionary by sorting another copy and binary-searching every row.
template <typename T>
size_t ReferenceCountDistinct(const std::vector<T>& values) {
  std::vector<T> scratch = values;
  std::sort(scratch.begin(), scratch.end());
  return static_cast<size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

template <typename T>
void ReferenceBuildDictionary(const std::vector<T>& values,
                              std::vector<T>* dict,
                              std::vector<uint32_t>* codes) {
  *dict = values;
  std::sort(dict->begin(), dict->end());
  dict->erase(std::unique(dict->begin(), dict->end()), dict->end());
  codes->reserve(values.size());
  for (const T& v : values) {
    auto it = std::lower_bound(dict->begin(), dict->end(), v);
    codes->push_back(static_cast<uint32_t>(it - dict->begin()));
  }
}

/// What the reference seal makes of one column: the encoding, the
/// dictionary and codes or the plain values, as a run for the statistics.
template <typename T>
struct ReferenceSegment {
  explicit ReferenceSegment(const std::vector<T>& values) : plain(values) {
    const size_t distinct =
        values.empty() ? 0 : ReferenceCountDistinct(values);
    constexpr bool kInts = std::is_same_v<T, int64_t>;
    dictionary = !values.empty() && (kInts ? 2 * distinct <= values.size()
                                           : distinct < values.size());
    if (dictionary) ReferenceBuildDictionary(values, &dict, &codes);
  }

  ColumnRun Run() const {
    ColumnRun run;
    run.type = std::is_same_v<T, int64_t> ? ValueType::kInt
                                          : ValueType::kString;
    run.length = plain.size();
    run.encoding = dictionary ? SegmentEncoding::kDictionary
                              : SegmentEncoding::kPlain;
    if (dictionary) {
      run.codes = codes.data();
      run.dict_size = dict.size();
      if constexpr (std::is_same_v<T, int64_t>) {
        run.int_dict = dict.data();
      } else {
        run.string_dict = dict.data();
      }
    } else if constexpr (std::is_same_v<T, int64_t>) {
      run.ints = plain.data();
    } else {
      run.strings = plain.data();
    }
    return run;
  }

  std::vector<T> plain;
  bool dictionary = false;
  std::vector<T> dict;
  std::vector<uint32_t> codes;
};

void ExpectSameStats(const ChunkColumnStats& a, const ChunkColumnStats& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.distinct, b.distinct);
  EXPECT_EQ(a.has_histogram, b.has_histogram);
  for (size_t bin = 0; bin < ChunkColumnStats::kHistogramBins; ++bin) {
    EXPECT_EQ(a.bins[bin], b.bins[bin]) << "bin " << bin;
  }
}

template <typename T>
void ExpectSealMatchesReference(const std::vector<T>& values) {
  SCOPED_TRACE("rows " + std::to_string(values.size()));
  const ReferenceSegment<T> want(values);
  Segment got;
  if constexpr (std::is_same_v<T, int64_t>) {
    got = Segment::SealInts(std::vector<T>(values));
  } else {
    got = Segment::SealStrings(std::vector<T>(values));
  }
  const ColumnRun run = got.Run(0);
  ASSERT_EQ(run.length, values.size());
  ASSERT_EQ(got.encoding(), want.Run().encoding);
  if (want.dictionary) {
    ASSERT_EQ(run.dict_size, want.dict.size());
    for (size_t e = 0; e < want.dict.size(); ++e) {
      if constexpr (std::is_same_v<T, int64_t>) {
        EXPECT_EQ(run.int_dict[e], want.dict[e]);
      } else {
        EXPECT_EQ(run.string_dict[e], want.dict[e]);
      }
    }
    EXPECT_TRUE(std::equal(want.codes.begin(), want.codes.end(), run.codes));
  } else {
    EXPECT_EQ(run.dict_size, 0u);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(run.ValueAt(i), Value(values[i]));
    }
  }
  ExpectSameStats(BuildChunkColumnStats(got), BuildChunkColumnStats(want.Run()));
  if constexpr (std::is_same_v<T, int64_t>) {
    // Int payloads are sized exactly as before: codes for every row, the
    // dictionary for its entries, or the plain vector passed in (a copy,
    // so exactly `rows` long).
    const size_t want_bytes =
        want.dictionary ? values.size() * sizeof(uint32_t) +
                              want.dict.size() * sizeof(int64_t)
                        : values.size() * sizeof(int64_t);
    EXPECT_EQ(got.MemoryBytes(), want_bytes);
  }
}

/// `rows` values with exactly `distinct` distinct ones drawn from `pool`,
/// in random order.
template <typename T>
std::vector<T> ColumnWithDistinct(Rng& rng, const std::vector<T>& pool,
                                  size_t rows, size_t distinct) {
  std::vector<T> values;
  for (size_t i : rng.SampleWithoutReplacement(pool.size(), distinct)) {
    values.push_back(pool[i]);
  }
  while (values.size() < rows) {
    values.push_back(values[rng.UniformIndex(distinct)]);
  }
  rng.Shuffle(values);
  return values;
}

TEST(SegmentTest, HashSealMatchesSortReference) {
  Rng rng(20261019);
  std::vector<int64_t> int_pool = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(), -1,
                                   0, 1};
  while (int_pool.size() < 6000) {
    int_pool.push_back(static_cast<int64_t>(rng.engine()()));
  }
  std::sort(int_pool.begin(), int_pool.end());
  int_pool.erase(std::unique(int_pool.begin(), int_pool.end()),
                 int_pool.end());
  const std::vector<std::string> special_strings = {
      "", std::string("a\0b", 3), std::string("\0", 1), "x",
      "longer than fifteen bytes", "longer than fifteen bytes!"};
  std::vector<std::string> string_pool = special_strings;
  while (string_pool.size() < 6000) {
    std::string s(rng.UniformIndex(40), ' ');
    for (char& c : s) c = static_cast<char>(rng.UniformIndex(256));
    string_pool.push_back(std::move(s));
  }
  std::sort(string_pool.begin(), string_pool.end());
  string_pool.erase(std::unique(string_pool.begin(), string_pool.end()),
                    string_pool.end());

  ExpectSealMatchesReference(std::vector<int64_t>{});
  ExpectSealMatchesReference(std::vector<std::string>{});
  ExpectSealMatchesReference(std::vector<int64_t>{int_pool.front()});
  ExpectSealMatchesReference(std::vector<std::string>{""});
  for (size_t rows : {2, 3, 4, 5, 17, 18, 4095, 4096}) {
    // Ints on both sides of the rule 2·distinct <= rows: 2·distinct =
    // rows (even rows) and = rows + 1 (odd rows) are its edges.
    for (size_t distinct : {rows / 2, (rows + 1) / 2, rows / 2 + 1,
                            size_t{1}, rows}) {
      if (distinct == 0 || distinct > rows) continue;
      ExpectSealMatchesReference(
          ColumnWithDistinct(rng, int_pool, rows, distinct));
    }
    // Strings: all distinct (plain), one repeat, and few distinct.
    ExpectSealMatchesReference(
        ColumnWithDistinct(rng, string_pool, rows, rows));
    ExpectSealMatchesReference(
        ColumnWithDistinct(rng, string_pool, rows, rows - 1));
    ExpectSealMatchesReference(ColumnWithDistinct(
        rng, string_pool, rows, std::max<size_t>(1, rows / 64)));
  }
  // Every edge value at once, repeated enough to be a dictionary.
  std::vector<int64_t> edges;
  std::vector<std::string> edge_strings;
  for (size_t i = 0; i < 4096; ++i) {
    edges.push_back(int_pool[i % 5 == 0 ? 0 : int_pool.size() - 1]);
    edge_strings.push_back(special_strings[i % special_strings.size()]);
  }
  ExpectSealMatchesReference(edges);
  ExpectSealMatchesReference(edge_strings);
}

}  // namespace
}  // namespace cqa
