#include "storage/tbl_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gen/tpch.h"
#include "storage/audit.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

class TblIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cqa_tbl_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

  /// Writes `text` to `file` byte for byte and returns its path.
  std::string WriteFile(const std::string& file, const std::string& text) {
    std::ofstream out(Path(file), std::ios::binary);
    out << text;
    return Path(file);
  }

  std::filesystem::path dir_;
};

/// m(k int, v double, s string).
Schema MixedSchema() {
  Schema schema;
  schema.AddRelation(RelationSchema("m",
                                    {{"k", ValueType::kInt},
                                     {"v", ValueType::kDouble},
                                     {"s", ValueType::kString}}));
  return schema;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST_F(TblIoTest, WriteProducesDbgenFormat) {
  EmployeeFixture fx;
  std::string error;
  ASSERT_TRUE(
      WriteTblFile(fx.db->relation("employee"), Path("e.tbl"), &error))
      << error;
  std::ifstream in(Path("e.tbl"));
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1|Bob|HR|");
}

TEST_F(TblIoTest, RoundTripPreservesFacts) {
  EmployeeFixture fx;
  std::string error;
  ASSERT_TRUE(WriteTblDirectory(*fx.db, dir_.string(), &error)) << error;
  Database loaded(fx.schema.get());
  ASSERT_TRUE(ReadTblDirectory(&loaded, dir_.string(), &error)) << error;
  ASSERT_EQ(loaded.NumFacts(), fx.db->NumFacts());
  for (size_t row = 0; row < fx.db->relation(0).size(); ++row) {
    EXPECT_EQ(loaded.relation(0).row(row), fx.db->relation(0).row(row));
  }
}

TEST_F(TblIoTest, DoublesRoundTripExactly) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "m", {{"k", ValueType::kInt}, {"v", ValueType::kDouble}}, {0}));
  Database db(&schema);
  db.Insert("m", {Value(1), Value(0.1)});
  db.Insert("m", {Value(2), Value(1.0 / 3.0)});
  db.Insert("m", {Value(3), Value(-2.5e-17)});
  std::string error;
  ASSERT_TRUE(WriteTblDirectory(db, dir_.string(), &error)) << error;
  Database loaded(&schema);
  ASSERT_TRUE(ReadTblDirectory(&loaded, dir_.string(), &error)) << error;
  for (size_t row = 0; row < 3; ++row) {
    EXPECT_EQ(loaded.relation(0).row(row), db.relation(0).row(row));
  }
}

TEST_F(TblIoTest, TpchRoundTrip) {
  TpchOptions options;
  options.scale_factor = 0.0002;
  Dataset d = GenerateTpch(options);
  std::string error;
  ASSERT_TRUE(WriteTblDirectory(*d.db, dir_.string(), &error)) << error;
  Database loaded(d.schema.get());
  ASSERT_TRUE(ReadTblDirectory(&loaded, dir_.string(), &error)) << error;
  EXPECT_EQ(loaded.NumFacts(), d.db->NumFacts());
  EXPECT_TRUE(loaded.SatisfiesKeys());
  const Relation& got = loaded.relation("lineitem");
  const Relation& want = d.db->relation("lineitem");
  ASSERT_EQ(got.size(), want.size());
  for (size_t row = 0; row < want.size(); ++row) {
    ASSERT_EQ(got.row(row), want.row(row)) << "row " << row;
  }
}

TEST_F(TblIoTest, RejectsStringsWithSeparator) {
  Schema schema;
  schema.AddRelation(RelationSchema("s", {{"v", ValueType::kString}}));
  Database db(&schema);
  db.Insert("s", {Value("bad|value")});
  std::string error;
  EXPECT_FALSE(WriteTblFile(db.relation(0), Path("s.tbl"), &error));
  EXPECT_NE(error.find("contains"), std::string::npos);
}

TEST_F(TblIoTest, ReadRejectsMalformedLines) {
  EmployeeFixture fx;
  std::string error;
  Database db(fx.schema.get());
  const std::string bad = WriteFile("bad.tbl", "1|Bob|HR|extra|\n");
  EXPECT_FALSE(ReadTblFile(&db, "employee", bad, &error));
  EXPECT_EQ(error, bad + ":1: too many fields");

  const std::string bad2 = WriteFile("bad2.tbl", "1|Bob\n");
  EXPECT_FALSE(ReadTblFile(&db, "employee", bad2, &error));
  EXPECT_EQ(error, bad2 + ":1: unterminated field");

  const std::string bad3 = WriteFile("bad3.tbl", "notanint|Bob|HR|\n");
  EXPECT_FALSE(ReadTblFile(&db, "employee", bad3, &error));
  EXPECT_EQ(error, bad3 + ":1: bad int field: notanint");

  const std::string bad4 = WriteFile("bad4.tbl", "1|Bob|\n");
  EXPECT_FALSE(ReadTblFile(&db, "employee", bad4, &error));
  EXPECT_EQ(error, bad4 + ":1: expected 3 fields, got 2");
  EXPECT_EQ(db.NumFacts(), 0u);

  // Lines count from 1, empty ones included. The rows before a bad line
  // stay; the bad line appends none of its fields, so after sealing every
  // segment holds its chunk's rows.
  const std::string bad5 =
      WriteFile("bad5.tbl", "1|Bob|HR|\n\n2|Tim|IT|\n3|Ann|x\n4|Al|IT|\n");
  EXPECT_FALSE(ReadTblFile(&db, "employee", bad5, &error));
  EXPECT_EQ(error, bad5 + ":4: unterminated field");
  EXPECT_EQ(db.relation(0).size(), 2u);
  db.SealStorage();
  EXPECT_TRUE(audit::CheckColumnarStorage(db, &error)) << error;
}

TEST_F(TblIoTest, RejectsOutOfRangeNumbers) {
  const Schema schema = MixedSchema();
  const char* const kLines[] = {
      "99999999999999999999|0|x|",   "-99999999999999999999|0|x|",
      "9223372036854775808|0|x|",    "-9223372036854775809|0|x|",
      "1|1e999|x|",                  "1|-1e999|x|",
      "1|1e-400|x|",                 "1|-1e-400|x|",
      "1|2.4703282292062327e-324|x|"};  // Rounds to 0: underflow.
  for (const char* line : kLines) {
    const std::string path = WriteFile("r.tbl", std::string("0|0|y|\n") + line);
    Database db(&schema);
    std::string error;
    EXPECT_FALSE(ReadTblFile(&db, "m", path, &error)) << line;
    EXPECT_EQ(error.rfind(path + ":2: ", 0), 0u) << error;
    EXPECT_NE(error.find("field out of range"), std::string::npos) << error;
    EXPECT_EQ(db.relation(0).size(), 1u) << line;
  }
}

TEST_F(TblIoTest, AcceptsEverythingTheWriterEmits) {
  const Schema schema = MixedSchema();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kDenormMin = std::numeric_limits<double>::denorm_min();
  const std::vector<int64_t> ints = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      -1, 0, 42};
  const std::vector<double> doubles = {
      kInf, -kInf, kNan, -kNan, kDenormMin, -kDenormMin,
      std::numeric_limits<double>::min() - kDenormMin,  // Largest subnormal.
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 0.0, -0.0, 0.1, 1.0 / 3.0};
  const std::vector<std::string> strings = {
      "", "short", "a string longer than fifteen bytes",
      std::string("embedded\0nul", 12), "tab\there", "cr\r"};
  Database db(&schema);
  const size_t rows = std::max({ints.size(), doubles.size(), strings.size()});
  for (size_t i = 0; i < rows; ++i) {
    db.Insert("m", {Value(ints[i % ints.size()]),
                    Value(doubles[i % doubles.size()]),
                    Value(strings[i % strings.size()])});
  }
  std::string error;
  ASSERT_TRUE(WriteTblFile(db.relation(0), Path("m.tbl"), &error)) << error;
  Database loaded(&schema);
  ASSERT_TRUE(ReadTblFile(&loaded, "m", Path("m.tbl"), &error)) << error;
  ASSERT_EQ(loaded.relation(0).size(), rows);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(loaded.relation(0).SlotAt(i, 0).i, ints[i % ints.size()]);
    EXPECT_EQ(Bits(loaded.relation(0).SlotAt(i, 1).d),
              Bits(doubles[i % doubles.size()]))
        << doubles[i % doubles.size()];
    EXPECT_EQ(*loaded.relation(0).SlotAt(i, 2).s, strings[i % strings.size()]);
  }

  // The writer's spellings, and a last line without its newline.
  const std::string path = WriteFile(
      "n.tbl",
      "-9223372036854775808|-nan|x|\n-0|4.9406564584124654e-324|y|\n"
      "7|1.7976931348623157e+308|z|");
  Database tail(&schema);
  ASSERT_TRUE(ReadTblFile(&tail, "m", path, &error)) << error;
  ASSERT_EQ(tail.relation(0).size(), 3u);
  EXPECT_EQ(tail.relation(0).SlotAt(0, 0).i,
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Bits(tail.relation(0).SlotAt(0, 1).d), Bits(-kNan));
  EXPECT_EQ(tail.relation(0).SlotAt(1, 0).i, 0);
  EXPECT_EQ(Bits(tail.relation(0).SlotAt(1, 1).d), Bits(kDenormMin));
  EXPECT_EQ(tail.relation(0).SlotAt(2, 1).d,
            std::numeric_limits<double>::max());
  EXPECT_EQ(*tail.relation(0).SlotAt(2, 2).s, "z");
}

// Numbers parse with std::from_chars. strtoll/strtod, which the loader
// used before, also took leading blanks, a '+' sign and hex floats, and
// kept a NaN's payload; neither WriteTblFile nor dbgen emits any of them.
TEST_F(TblIoTest, RefusesBlanksPlusSignsAndHexFloats) {
  const Schema schema = MixedSchema();
  const char* const kLines[] = {" 5|0|x|",   "+5|0|x|",   "\t5|0|x|",
                                "1| 0.5|x|", "1|+0.5|x|", "1|0x1p-3|x|",
                                "1|0X1P3|x|"};
  for (const char* line : kLines) {
    const std::string path = WriteFile("s.tbl", line);
    Database db(&schema);
    std::string error;
    EXPECT_FALSE(ReadTblFile(&db, "m", path, &error)) << line;
    EXPECT_EQ(error.rfind(path + ":1: bad ", 0), 0u) << error;
  }
  // An embedded NUL ends a C parser's scan; from_chars sees the whole field.
  const std::string nul = WriteFile("nul.tbl", std::string("5\0|0|x|", 7));
  Database db(&schema);
  std::string error;
  EXPECT_FALSE(ReadTblFile(&db, "m", nul, &error));
  EXPECT_EQ(error.rfind(nul + ":1: bad int field: ", 0), 0u) << error;
  // A NaN payload is dropped: the loaded NaN is the default quiet one.
  const std::string payload = WriteFile("nan.tbl", "1|nan(123)|x|\n");
  Database nan(&schema);
  ASSERT_TRUE(ReadTblFile(&nan, "m", payload, &error)) << error;
  EXPECT_EQ(Bits(nan.relation(0).SlotAt(0, 1).d),
            Bits(std::numeric_limits<double>::quiet_NaN()));
}

TEST_F(TblIoTest, ReadUnknownRelationFails) {
  EmployeeFixture fx;
  Database db(fx.schema.get());
  std::string error;
  EXPECT_FALSE(ReadTblFile(&db, "ghost", Path("x.tbl"), &error));
  EXPECT_EQ(error, Path("x.tbl") + ":0: unknown relation ghost");
}

TEST_F(TblIoTest, MissingFileFails) {
  EmployeeFixture fx;
  Database db(fx.schema.get());
  std::string error;
  EXPECT_FALSE(ReadTblFile(&db, "employee", Path("absent.tbl"), &error));
  EXPECT_EQ(error.rfind(Path("absent.tbl") + ":0: cannot open", 0), 0u)
      << error;
}

TEST_F(TblIoTest, EmptyRelationWritesEmptyFile) {
  EmployeeFixture fx;
  Database db(fx.schema.get());
  std::string error;
  ASSERT_TRUE(WriteTblDirectory(db, dir_.string(), &error)) << error;
  Database loaded(fx.schema.get());
  ASSERT_TRUE(ReadTblDirectory(&loaded, dir_.string(), &error)) << error;
  EXPECT_EQ(loaded.NumFacts(), 0u);
}

}  // namespace
}  // namespace cqa
