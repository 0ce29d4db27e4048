#include "cqa/synopsis_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cqa/exact.h"
#include "cqa/schemes.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

class SynopsisIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cqa_syn_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".txt"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // Writes `text` to the test's file and reads it back.
  bool ReadText(const std::string& text, std::vector<AnswerSynopsis>* out,
                std::string* error) {
    {
      std::ofstream file(path_);
      file << text;
    }
    return ReadSynopses(path_, out, error);
  }

  // Expects ReadSynopses to refuse `text` with "<path>:<line>: <reason>".
  void ExpectRejected(const std::string& text, int line,
                      const std::string& reason) {
    std::vector<AnswerSynopsis> loaded;
    std::string error;
    EXPECT_FALSE(ReadText(text, &loaded, &error));
    EXPECT_EQ(error.rfind(path_ + ":" + std::to_string(line) + ": ", 0), 0u)
        << error;
    EXPECT_NE(error.find(reason), std::string::npos) << error;
  }

  std::string path_;
};

TEST_F(SynopsisIoTest, RoundTripPreservesSynopses) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  std::string error;
  ASSERT_TRUE(WriteSynopses(pre, path_, &error)) << error;

  std::vector<AnswerSynopsis> loaded;
  ASSERT_TRUE(ReadSynopses(path_, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), pre.NumAnswers());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].answer, pre.answers()[i].answer);
    EXPECT_EQ(loaded[i].synopsis.NumImages(),
              pre.answers()[i].synopsis.NumImages());
    EXPECT_EQ(loaded[i].synopsis.NumBlocks(),
              pre.answers()[i].synopsis.NumBlocks());
    EXPECT_DOUBLE_EQ(*ExactRatioByEnumeration(loaded[i].synopsis),
                     *ExactRatioByEnumeration(pre.answers()[i].synopsis));
  }
}

TEST_F(SynopsisIoTest, SchemesRunOffLoadedSynopses) {
  // The decoupled workflow: preprocess + persist, then approximate
  // offline. Frequencies must match a direct run given the same seed.
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  std::string error;
  ASSERT_TRUE(WriteSynopses(pre, path_, &error)) << error;
  std::vector<AnswerSynopsis> loaded;
  ASSERT_TRUE(ReadSynopses(path_, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  auto scheme = ApxRelativeFreqScheme::Create(SchemeKind::kKl);
  Rng rng_a(3), rng_b(3);
  ApxResult direct = scheme->Run(pre.answers()[0].synopsis, ApxParams{},
                                 rng_a);
  ApxResult offline = scheme->Run(loaded[0].synopsis, ApxParams{}, rng_b);
  EXPECT_DOUBLE_EQ(direct.estimate, offline.estimate);
}

TEST_F(SynopsisIoTest, RoundTripOnNoisyTpch) {
  TpchOptions options;
  options.scale_factor = 0.0003;
  Dataset d = GenerateTpch(options);
  ConjunctiveQuery q = MustParseCq(
      *d.schema,
      "Q(NN) :- customer(CK, CN, CA, NK, CP, CB, CS, CC),"
      " nation(NK, NN, RK, NC).");
  Rng rng(4);
  NoiseOptions noise;
  noise.p = 0.5;
  AddQueryAwareNoise(d.db.get(), q, noise, rng);
  PreprocessResult pre = BuildSynopses(*d.db, q);
  std::string error;
  ASSERT_TRUE(WriteSynopses(pre, path_, &error)) << error;
  std::vector<AnswerSynopsis> loaded;
  ASSERT_TRUE(ReadSynopses(path_, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), pre.NumAnswers());
  // Spot-check the weights (they determine every scheme's behaviour).
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].synopsis.SymbolicToNaturalFactor(),
                     pre.answers()[i].synopsis.SymbolicToNaturalFactor());
  }
}

TEST_F(SynopsisIoTest, RejectsBadHeader) {
  {
    std::ofstream out(path_);
    out << "NOT_A_SYNOPSIS\n";
  }
  std::vector<AnswerSynopsis> loaded;
  std::string error;
  EXPECT_FALSE(ReadSynopses(path_, &loaded, &error));
  EXPECT_NE(error.find("bad header"), std::string::npos);
}

TEST_F(SynopsisIoTest, RejectsRecordsBeforeAnswer) {
  {
    std::ofstream out(path_);
    out << "CQA_SYNOPSES 1\nB|2,0,0|\n";
  }
  std::vector<AnswerSynopsis> loaded;
  std::string error;
  EXPECT_FALSE(ReadSynopses(path_, &loaded, &error));
  EXPECT_NE(error.find("B before A"), std::string::npos);
}

TEST_F(SynopsisIoTest, RejectsMalformedImageFacts) {
  {
    std::ofstream out(path_);
    out << "CQA_SYNOPSES 1\nA|i:1|\nB|2,0,0|\nI|nonsense|\n";
  }
  std::vector<AnswerSynopsis> loaded;
  std::string error;
  EXPECT_FALSE(ReadSynopses(path_, &loaded, &error));
}

// Each malformed record below must be refused before it reaches
// SynopsisBuilder, whose checks abort; "-1" must not wrap to 2^64 - 1.
TEST_F(SynopsisIoTest, RejectsZeroSizeBlock) {
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1|\nB|0,0,0|\nI|0:0|\n", 3,
                 "block of size 0");
}

TEST_F(SynopsisIoTest, RejectsFactNamingAnUnknownBlock) {
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1|\nB|2,0,0|\nI|5:0|\n", 4,
                 "image fact 5:0 names an unknown block");
}

TEST_F(SynopsisIoTest, RejectsTidPastItsBlock) {
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1|\nB|2,0,0|\nI|0:7|\n", 4,
                 "image fact 0:7 is past the end of its block");
}

TEST_F(SynopsisIoTest, RejectsTwoFactsInOneBlock) {
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1|\nB|2,0,0|\nI|0:0 0:1|\n", 4,
                 "shares its block");
}

TEST_F(SynopsisIoTest, RejectsNegativeBlockSize) {
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1|\nB|-1,0,0|\nI|0:7|\n", 3,
                 "bad block: -1,0,0");
}

// Numbers are complete unsigned 32-bit decimals: no sign, no space, no
// trailing byte, no overflow.
TEST_F(SynopsisIoTest, RejectsIncompleteNumbers) {
  for (const char* block : {"2x,0,0", "2,0", "2,0,0,0", " 2,0,0", "+2,0,0",
                            "4294967296,0,0", "2,,0"}) {
    ExpectRejected(std::string("CQA_SYNOPSES 1\nA|i:1|\nB|") + block +
                       "|\n",
                   3, "bad block");
  }
  for (const char* fact : {"0:1x", "0", "-0:1", "0:4294967296", ":1"}) {
    ExpectRejected(std::string("CQA_SYNOPSES 1\nA|i:1|\nB|2,0,0|\nI|") +
                       fact + "|\n",
                   4, "bad image fact");
  }
}

// Every field ends with '|': a last field without one is not dropped
// unread.
TEST_F(SynopsisIoTest, RejectsUnterminatedRecord) {
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1|\nB|2,0,0|\nI|0:1\n", 4,
                 "does not end with '|'");
  ExpectRejected("CQA_SYNOPSES 1\nA|i:1\n", 2, "does not end with '|'");
}

// A repeated fact is harmless and a repeated image is dropped (H is a
// set), as SynopsisBuilder::AddImage does; an answer may have no image.
TEST_F(SynopsisIoTest, AcceptsRepeatsAndAnswersWithoutImages) {
  std::vector<AnswerSynopsis> loaded;
  std::string error;
  ASSERT_TRUE(ReadText("CQA_SYNOPSES 1\nA|s:none|\nB|3,0,0|\nI|\n"
                       "A|i:2|\nB|2,1,4|3,1,5|\nI|1:2 0:1 1:2|0:1 1:2|0:0|\n",
                       &loaded, &error))
      << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded[0].synopsis.Empty());
  EXPECT_EQ(loaded[0].synopsis.NumBlocks(), 1u);
  ASSERT_EQ(loaded[1].synopsis.NumImages(), 2u);
  EXPECT_EQ(loaded[1].synopsis.image(0).size(), 2u);
  EXPECT_EQ(loaded[1].synopsis.image(1).size(), 1u);
}

// Reading a written file and writing it again reproduces its bytes.
TEST_F(SynopsisIoTest, RewriteIsByteIdentical) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q(D) :- employee(I, N, D), employee(I, M, D).");
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  std::string error;
  ASSERT_TRUE(WriteSynopses(pre, path_, &error)) << error;
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string first = slurp(path_);
  std::vector<AnswerSynopsis> loaded;
  ASSERT_TRUE(ReadSynopses(path_, &loaded, &error)) << error;
  const PreprocessResult reread(std::move(loaded), fx.db->block_index(),
                                pre.stats());
  ASSERT_TRUE(WriteSynopses(reread, path_, &error)) << error;
  EXPECT_EQ(slurp(path_), first);
  EXPECT_NE(first.find("I|"), std::string::npos);
}

TEST_F(SynopsisIoTest, MissingFileFails) {
  std::vector<AnswerSynopsis> loaded;
  std::string error;
  EXPECT_FALSE(ReadSynopses("/nonexistent/syn.txt", &loaded, &error));
}

}  // namespace
}  // namespace cqa
