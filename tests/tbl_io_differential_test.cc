// Differential tests of the streaming .tbl loader against the getline →
// Tuple → Insert loop it replaced (reference_tbl_reader.h): on seeded
// relations written by WriteTblFile both must build the same storage,
// chunk by chunk and slot by slot. The relations mix int, double and
// string columns with dictionary and plain chunks, straddle the 4096-row
// chunk edge, carry doubles from random bit patterns, and make files
// larger than a read block, with a line longer than a block, empty lines
// and no trailing newline. Mutated files must get the same verdict from
// both, except where the loader's number syntax deliberately changed
// (DocumentedSyntaxChange).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "reference_tbl_reader.h"
#include "storage/tbl_io.h"

namespace cqa {
namespace {

using testing::DiffRelationStorage;
using testing::ReferenceReadTblFile;

/// t(id int, grp int, price double, tag string, note string): `id` and
/// `note` are mostly distinct (plain chunks), `grp` and `tag` have few
/// values (dictionary chunks).
Schema MakeSchema() {
  Schema schema;
  schema.AddRelation(RelationSchema("t", {{"id", ValueType::kInt},
                                          {"grp", ValueType::kInt},
                                          {"price", ValueType::kDouble},
                                          {"tag", ValueType::kString},
                                          {"note", ValueType::kString}}));
  return schema;
}

/// A double from a random bit pattern, or one of the edge values.
double RandomDouble(Rng& rng) {
  static const double kEdges[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  uint64_t bits = rng.engine()();
  switch (rng.UniformIndex(4)) {
    case 0:
      return kEdges[rng.UniformIndex(std::size(kEdges))];
    case 1:
      bits &= 0x800fffffffffffffULL;  // A subnormal (or ±0).
      break;
    default:
      break;  // Any pattern: NaNs with payloads, infinities, normals.
  }
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// A string of `length` bytes without '|' or a newline, NULs included.
std::string RandomString(Rng& rng, size_t length) {
  std::string s(length, ' ');
  for (char& c : s) {
    do {
      c = static_cast<char>(rng.UniformIndex(256));
    } while (c == '|' || c == '\n');
  }
  return s;
}

/// A seeded relation of `rows` rows. Chunks alternate between few and
/// many distinct tags, so both encodings occur in the string columns too.
void FillRelation(Rng& rng, size_t rows, Database* db) {
  static const char* const kTags[] = {"", "AIR", "MAIL", "SHIP",
                                      "DELIVER IN PERSON"};
  for (size_t i = 0; i < rows; ++i) {
    const bool few = (i / Relation::kDefaultChunkCapacity) % 2 == 0;
    db->Insert(0, {Value(static_cast<int64_t>(rng.engine()())),
                   Value(rng.UniformInt(-3, 3)), Value(RandomDouble(rng)),
                   few ? Value(kTags[rng.UniformIndex(5)])
                       : Value(RandomString(rng, rng.UniformIndex(24))),
                   Value(RandomString(rng, rng.UniformIndex(300)))});
  }
  db->SealStorage();
}

class TblIoDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cqa_tbl_diff_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string WriteFile(const std::string& file, const std::string& bytes) {
    std::ofstream out(Path(file), std::ios::binary);
    out << bytes;
    return Path(file);
  }

  /// Loads `path` through both readers into fresh databases and checks
  /// that they agree: the verdict, the reason, and the storage built
  /// (also the rows a rejected file leaves behind).
  void ExpectSameLoad(const std::string& path, bool* accepted = nullptr) {
    Database want(&schema_), got(&schema_);
    std::string want_error, got_error;
    const bool want_ok = ReferenceReadTblFile(&want, "t", path, &want_error);
    const bool got_ok = ReadTblFile(&got, "t", path, &got_error);
    ASSERT_EQ(got_ok, want_ok) << got_error << " / " << want_error;
    if (!got_ok) {
      // The reference named the line only for arity errors; the loader
      // prefixes every reason with "<path>:<line>: ".
      EXPECT_EQ(got_error.rfind(path + ":", 0), 0u) << got_error;
      EXPECT_TRUE(got_error == want_error ||
                  got_error.ends_with(": " + want_error))
          << got_error << " / " << want_error;
    }
    EXPECT_EQ(DiffRelationStorage(got.relation(0), want.relation(0)), "");
    if (accepted != nullptr) *accepted = got_ok;
  }

  Schema schema_ = MakeSchema();
  std::filesystem::path dir_;
};

TEST_F(TblIoDifferentialTest, WrittenRelationsLoadAlike) {
  Rng rng(20261019);
  bool larger_than_a_block = false;
  for (size_t rows : {0, 1, 4095, 4096, 4097, 8193}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    Database source(&schema_);
    FillRelation(rng, rows, &source);
    std::string error;
    ASSERT_TRUE(WriteTblFile(source.relation(0), Path("t.tbl"), &error))
        << error;
    larger_than_a_block |=
        std::filesystem::file_size(Path("t.tbl")) > kTblReadBlockBytes;
    ExpectSameLoad(Path("t.tbl"));

    // Empty lines anywhere, and no trailing newline.
    std::string bytes = ReadFile(Path("t.tbl"));
    std::string spaced;
    for (char c : bytes) {
      spaced.push_back(c);
      if (c == '\n' && rng.Bernoulli(0.01)) spaced.append("\n\n");
    }
    if (!spaced.empty() && spaced.back() == '\n') spaced.pop_back();
    ExpectSameLoad(WriteFile("spaced.tbl", "\n" + spaced));
  }
  EXPECT_TRUE(larger_than_a_block) << "no file crossed a block edge";
}

TEST_F(TblIoDifferentialTest, LinesAcrossAndBeyondBlockEdges) {
  // A newline as the last byte of the first block, as the first byte of
  // the second, and one byte after it; then a line longer than a block
  // (and than two), and a file that ends inside such a line.
  const std::string row_end = "|0|0.5|tag|";
  for (size_t newline_at : {kTblReadBlockBytes - 1, kTblReadBlockBytes,
                            kTblReadBlockBytes + 1}) {
    SCOPED_TRACE("newline at " + std::to_string(newline_at));
    std::string first = "1" + row_end;
    first += std::string(newline_at - first.size() - 1, 'n') + "|\n";
    ASSERT_EQ(first.size(), newline_at + 1);
    bool accepted = false;
    ExpectSameLoad(WriteFile("edge.tbl", first + "2" + row_end + "x|\n"),
                   &accepted);
    EXPECT_TRUE(accepted);
  }
  for (size_t length : {kTblReadBlockBytes + 7, 2 * kTblReadBlockBytes + 3}) {
    const std::string long_row = "2" + row_end + std::string(length, 'L') + "|";
    bool accepted = false;
    ExpectSameLoad(WriteFile("long.tbl", "1" + row_end + "a|\n" + long_row +
                                             "\n3" + row_end + "b|\n"),
                   &accepted);
    EXPECT_TRUE(accepted);
    ExpectSameLoad(WriteFile("long_last.tbl", "1" + row_end + "a|\n" + long_row),
                   &accepted);
    EXPECT_TRUE(accepted);
    ExpectSameLoad(WriteFile("long_bad.tbl", "1" + row_end + "a|\n" + long_row +
                                                 "x\n"),
                   &accepted);
    EXPECT_FALSE(accepted);
  }
}

/// True when a numeric field of `bytes` falls under a documented change of
/// the loader's number syntax, so the two readers may disagree on it:
/// leading blanks, '+', hex floats, a NaN payload, an embedded NUL (where
/// strtoll/strtod stopped reading), or a number out of range.
bool DocumentedSyntaxChange(const std::string& bytes, const Schema& schema) {
  const RelationSchema& rs = schema.relation(0);
  size_t line_start = 0;
  while (line_start < bytes.size()) {
    size_t line_end = bytes.find('\n', line_start);
    if (line_end == std::string::npos) line_end = bytes.size();
    size_t start = line_start;
    for (size_t col = 0; col < rs.arity(); ++col) {
      const size_t bar = bytes.find('|', start);
      if (bar == std::string::npos || bar >= line_end) break;
      const std::string_view field(bytes.data() + start, bar - start);
      start = bar + 1;
      const ValueType type = rs.attribute(col).type;
      if (type == ValueType::kString || field.empty()) continue;
      if (std::isspace(static_cast<unsigned char>(field[0])) ||
          field[0] == '+' || field.find('\0') != std::string_view::npos) {
        return true;
      }
      std::errc ec;
      if (type == ValueType::kDouble) {
        if (field.find_first_of("xX(") != std::string_view::npos) return true;
        double d;
        ec = std::from_chars(field.data(), field.data() + field.size(), d).ec;
      } else {
        int64_t i;
        ec = std::from_chars(field.data(), field.data() + field.size(), i).ec;
      }
      if (ec == std::errc::result_out_of_range) return true;
    }
    line_start = line_end + 1;
  }
  return false;
}

TEST_F(TblIoDifferentialTest, MutatedFilesGetTheSameVerdict) {
  static const char kAlphabet[] = "0123456789|-.eE+ \n\tinfaxp(";
  Rng rng(7);
  Database source(&schema_);
  // Short notes keep the mutants small.
  for (int64_t i = 0; i < 30; ++i) {
    source.Insert(0, {Value(i * 1000003 - 15), Value(i % 3),
                      Value(RandomDouble(rng)), Value(i % 2 ? "AIR" : ""),
                      Value("n" + std::to_string(i))});
  }
  std::string error;
  ASSERT_TRUE(WriteTblFile(source.relation(0), Path("seed.tbl"), &error));
  const std::string seed = ReadFile(Path("seed.tbl"));
  size_t compared = 0, accepted = 0, documented = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = seed;
    const size_t mutations = 1 + rng.UniformIndex(4);
    for (size_t m = 0; m < mutations && !bytes.empty(); ++m) {
      const size_t pos = rng.UniformIndex(bytes.size());
      const char c = rng.Bernoulli(0.85)
                         ? kAlphabet[rng.UniformIndex(sizeof(kAlphabet) - 1)]
                         : static_cast<char>(rng.UniformIndex(256));
      switch (rng.UniformIndex(3)) {
        case 0:
          bytes[pos] = c;
          break;
        case 1:
          bytes.insert(pos, 1, c);
          break;
        case 2:
          bytes.erase(pos, 1);
          break;
      }
    }
    const std::string path = WriteFile("mutant.tbl", bytes);
    if (DocumentedSyntaxChange(bytes, schema_)) {
      // Only the loader's own contract applies: a located error, or rows.
      Database db(&schema_);
      if (!ReadTblFile(&db, "t", path, &error)) {
        EXPECT_EQ(error.rfind(path + ":", 0), 0u) << error;
      }
      ++documented;
      continue;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    bool ok = false;
    ExpectSameLoad(path, &ok);
    accepted += ok;
    ++compared;
  }
  // Both verdicts must occur among the compared mutants, or the
  // mutations test nothing; most mutants must be compared at all.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, compared);
  EXPECT_GT(compared, documented);
}

}  // namespace
}  // namespace cqa
