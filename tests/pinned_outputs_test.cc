// Pins the outputs of the validation queries on small generated
// instances: per query a digest of the homomorphism sequence (every
// image fact and answer tuple, in enumeration order), a digest of the
// synopses BuildSynopses returns (answer order, blocks, images) and its
// image counts. The values were recorded from the evaluator and encoder
// that enumerate in greedy atom order; a change that alters any output
// byte fails here. A change that reorders on purpose must regenerate the
// table deliberately: each failure prints the values it found.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cqa/preprocess.h"
#include "gen/noise.h"
#include "gen/tpcds.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "query/evaluator.h"

namespace cqa {
namespace {

/// An order-sensitive 64-bit digest built from SplitMix64 steps.
class Digest {
 public:
  void Add(uint64_t x) { h_ = SplitMix64(h_ ^ x); }
  void Add(const Value& v) {
    Add(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt:
        Add(static_cast<uint64_t>(v.AsInt()));
        break;
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        Add(bits);
        break;
      }
      case ValueType::kString:
        Add(v.AsString().size());
        for (char c : v.AsString()) Add(static_cast<unsigned char>(c));
        break;
    }
  }
  void Add(const Tuple& t) {
    Add(t.size());
    for (const Value& v : t) Add(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0;
};

struct Pinned {
  const char* query;
  uint64_t homomorphisms_digest;
  uint64_t synopses_digest;
  size_t num_homomorphisms;
  size_t num_images;
  size_t num_distinct_images;
};

struct Observed {
  uint64_t homomorphisms_digest = 0;
  uint64_t synopses_digest = 0;
  PreprocessStats stats;
};

Observed Observe(const Database& db, const ConjunctiveQuery& q) {
  Observed seen;
  Digest homs;
  CqEvaluator evaluator(&db);
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    for (const FactRef& f : h.image) {
      homs.Add(f.relation_id);
      homs.Add(f.row);
    }
    homs.Add(h.AnswerTuple(q));
    return true;
  });
  seen.homomorphisms_digest = homs.value();

  const PreprocessResult pre = BuildSynopses(db, q);
  Digest syn;
  syn.Add(pre.NumAnswers());
  for (const AnswerSynopsis& as : pre.answers()) {
    syn.Add(as.answer);
    syn.Add(as.synopsis.NumBlocks());
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      syn.Add(b.size);
      syn.Add(b.relation_id);
      syn.Add(b.block_id);
    }
    syn.Add(as.synopsis.NumImages());
    for (size_t i = 0; i < as.synopsis.NumImages(); ++i) {
      syn.Add(as.synopsis.image(i).size());
      for (const Synopsis::ImageFact& f : as.synopsis.image(i)) {
        syn.Add(f.block);
        syn.Add(f.tid);
      }
    }
  }
  seen.synopses_digest = syn.value();
  seen.stats = pre.stats();
  return seen;
}

void ExpectPinned(const Database& db, const std::vector<NamedQuery>& queries,
                  const std::vector<Pinned>& pinned) {
  ASSERT_EQ(queries.size(), pinned.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Pinned& want = pinned[i];
    ASSERT_EQ(queries[i].name, want.query);
    const Observed got = Observe(db, queries[i].query);
    const std::string found =
        "found {\"" + queries[i].name + "\", " +
        std::to_string(got.homomorphisms_digest) + "u, " +
        std::to_string(got.synopses_digest) + "u, " +
        std::to_string(got.stats.num_homomorphisms) + ", " +
        std::to_string(got.stats.num_images) + ", " +
        std::to_string(got.stats.num_distinct_images) + "}";
    SCOPED_TRACE(found);
    EXPECT_EQ(got.homomorphisms_digest, want.homomorphisms_digest);
    EXPECT_EQ(got.synopses_digest, want.synopses_digest);
    EXPECT_EQ(got.stats.num_homomorphisms, want.num_homomorphisms);
    EXPECT_EQ(got.stats.num_images, want.num_images);
    EXPECT_EQ(got.stats.num_distinct_images, want.num_distinct_images);
  }
}

const ConjunctiveQuery& Find(const std::vector<NamedQuery>& queries,
                             const std::string& name) {
  for (const NamedQuery& nq : queries) {
    if (nq.name == name) return nq.query;
  }
  ADD_FAILURE() << "no query " << name;
  return queries.front().query;
}

// TPC-H at SF 0.002 with Q8_H-aware noise: Q8_H is the query whose
// cheapest plan and greedy order differ, so its blocks are the ones
// inflated.
TEST(PinnedOutputsTest, TpchValidationQueries) {
  TpchOptions options;
  options.scale_factor = 0.002;
  options.seed = 20210620;
  Dataset data = GenerateTpch(options);
  const std::vector<NamedQuery> queries = TpchValidationQueries(*data.schema);
  Rng rng(SplitMix64(options.seed));
  AddQueryAwareNoise(data.db.get(), Find(queries, "Q8_H"), NoiseOptions(),
                     rng);
  ExpectPinned(*data.db, queries,
               {
                   {"Q1_H", 7958377038073168317u, 16834993655632921907u,
                    11962, 11962, 11962},
                   {"Q4_H", 16238512998396082187u, 13927621103067890551u,
                    12047, 12047, 12047},
                   {"Q5_H", 4537501167122817801u, 9865896216622269724u,
                    698, 698, 698},
                   {"Q6_H", 12506883418824941832u, 15917771940284213414u,
                    1111, 1111, 1111},
                   {"Q8_H", 10052465108421863721u, 11853691692022012634u,
                    82, 82, 82},
                   {"Q10_H", 3711731578863853108u, 13813003174249172154u,
                    7219, 7219, 7219},
                   {"Q12_H", 17191765636484553173u, 10801598513967267699u,
                    1740, 1740, 1740},
                   {"Q14_H", 785653785713654263u, 2117016289508417815u,
                    12036, 12036, 12036},
                   {"Q19_H", 15065414623170204216u, 3065423948702436450u,
                    5, 5, 5},
               });
}

// TPC-DS at SF 0.002 with Q60_DS-aware noise; Q1_DS, Q33_DS and Q60_DS
// also take the path that sorts a plan's output back into greedy order.
TEST(PinnedOutputsTest, TpcdsValidationQueries) {
  TpcdsOptions options;
  options.scale_factor = 0.002;
  options.seed = 20210621;
  Dataset data = GenerateTpcds(options);
  const std::vector<NamedQuery> queries =
      TpcdsValidationQueries(*data.schema);
  Rng rng(SplitMix64(options.seed));
  AddQueryAwareNoise(data.db.get(), Find(queries, "Q60_DS"), NoiseOptions(),
                     rng);
  ExpectPinned(*data.db, queries,
               {
                   {"Q1_DS", 11012383160229378919u, 7519715327601574357u,
                    107, 107, 107},
                   {"Q33_DS", 1069410243615606349u, 13332550814043985208u,
                    181, 181, 181},
                   {"Q60_DS", 12260690717341138369u, 17735927106805631665u,
                    146, 146, 146},
                   {"Q62_DS", 2834372560573614024u, 14375877500229269482u,
                    315, 315, 315},
                   {"Q65_DS", 9272414348126538228u, 12037289797002162504u,
                    1476, 1476, 1476},
                   {"Q66_DS", 10723767049814105796u, 3180985172995687635u,
                    556, 556, 556},
                   {"Q68_DS", 12242100311783752570u, 8428055403449414855u,
                    1373, 1373, 1373},
                   {"Q82_DS", 9640185528000721012u, 3848725841332980078u,
                    4159, 4159, 4159},
               });
}

}  // namespace
}  // namespace cqa
