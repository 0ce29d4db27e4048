// Pins the outputs of the validation queries on small generated
// instances: per query a digest of the homomorphism sequence (every
// image fact and answer tuple, in enumeration order), a digest of the
// synopses BuildSynopses returns (answer order, blocks, images) and its
// image counts. The values were recorded from the evaluator and encoder
// that enumerate in greedy atom order; a change that alters any output
// byte fails here. A change that reorders on purpose must regenerate the
// table deliberately: each failure prints the values it found.
//
// The same TPC-H instance also pins what the four schemes compute on real
// query shapes: per (query, scheme, threads) a digest of every answer's
// estimate bits and the total, estimator and main sample counts of one
// ApxCqaOnSynopses run at seed 1. The values were recorded from the
// samplers that walk the ImageIndex on every synopsis; a sampler that
// draws different words or turns them into different values fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cqa/apx_cqa.h"
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
Dataset NoisyTpch(std::vector<NamedQuery>* queries) {
  TpchOptions options;
  options.scale_factor = 0.002;
  options.seed = 20210620;
  Dataset data = GenerateTpch(options);
  *queries = TpchValidationQueries(*data.schema);
  Rng rng(SplitMix64(options.seed));
  AddQueryAwareNoise(data.db.get(), Find(*queries, "Q8_H"), NoiseOptions(),
                     rng);
  return data;
}

TEST(PinnedOutputsTest, TpchValidationQueries) {
  std::vector<NamedQuery> queries;
  const Dataset data = NoisyTpch(&queries);
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

/// The enumerator's spelling, for the values a failure prints.
const char* Enumerator(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNatural:
      return "kNatural";
    case SchemeKind::kKl:
      return "kKl";
    case SchemeKind::kKlm:
      return "kKlm";
    case SchemeKind::kCover:
      return "kCover";
  }
  return "?";
}

struct PinnedRun {
  const char* query;
  SchemeKind scheme;
  size_t threads;
  uint64_t estimates_digest;
  size_t total_samples;
  size_t estimator_samples;
  size_t main_samples;
};

// On this instance 61 of Q8_H's 71 synopses and all 532 of Q10_H's have
// at most 63 images and at most 2^12 joint tid choices over their blocks
// of size >= 2; one of Q5_H's 8 does. At threads = 2 the answers spread
// over two workers on forked streams (Cover included), so a row differs
// from its threads = 1 twin unless its estimates come out exact, as
// Q8_H's KL and KLM ones do here (every draw accepts). ε = 0.5 keeps the
// test short: the ten large Q8_H synopses still take ~40 M Natural draws.
TEST(PinnedOutputsTest, TpchSchemeOutputs) {
  std::vector<NamedQuery> queries;
  const Dataset data = NoisyTpch(&queries);
  const std::vector<PinnedRun> pinned = {
      {"Q5_H", SchemeKind::kNatural, 1, 14800715161097912164u,
       24435, 14587, 9848},
      {"Q5_H", SchemeKind::kNatural, 2, 14884641654127375539u,
       27462, 15933, 11529},
      {"Q5_H", SchemeKind::kKl, 1, 1162445412407520673u, 177227, 99420, 77807},
      {"Q5_H", SchemeKind::kKl, 2, 10849586740591969677u, 173863, 96335, 77528},
      {"Q5_H", SchemeKind::kKlm, 1, 3424621137535124703u,
       142821, 101709, 41112},
      {"Q5_H", SchemeKind::kKlm, 2, 13139057138957317031u,
       143091, 101901, 41190},
      {"Q5_H", SchemeKind::kCover, 1, 3976802193183317512u, 85945, 0, 85945},
      {"Q5_H", SchemeKind::kCover, 2, 8253111812234627565u, 85945, 0, 85945},
      {"Q8_H", SchemeKind::kNatural, 1, 3097505709809815834u,
       41923109, 23048785, 18874324},
      {"Q8_H", SchemeKind::kNatural, 2, 1618741237332449524u,
       43132210, 23580583, 19551627},
      {"Q8_H", SchemeKind::kKl, 1, 1495613924886504188u, 29323, 20874, 8449},
      {"Q8_H", SchemeKind::kKl, 2, 1495613924886504188u, 29323, 20874, 8449},
      {"Q8_H", SchemeKind::kKlm, 1, 1495613924886504188u, 29323, 20874, 8449},
      {"Q8_H", SchemeKind::kKlm, 2, 1495613924886504188u, 29323, 20874, 8449},
      {"Q8_H", SchemeKind::kCover, 1, 15015047841469333226u, 10157, 0, 10157},
      {"Q8_H", SchemeKind::kCover, 2, 7691378510790360223u, 10157, 0, 10157},
      {"Q10_H", SchemeKind::kNatural, 1, 2319250684988053063u,
       730771, 457874, 272897},
      {"Q10_H", SchemeKind::kNatural, 2, 2981518398133814681u,
       728452, 457535, 270917},
      {"Q10_H", SchemeKind::kKl, 1, 11961851171438497718u,
       3677404, 2085924, 1591480},
      {"Q10_H", SchemeKind::kKl, 2, 12481367051953704588u,
       3691111, 2094395, 1596716},
      {"Q10_H", SchemeKind::kKlm, 1, 7328714350027640089u,
       2930496, 2086905, 843591},
      {"Q10_H", SchemeKind::kKlm, 2, 15883281166932466830u,
       2930472, 2086888, 843584},
      {"Q10_H", SchemeKind::kCover, 1, 12741249276347618135u,
       889074, 0, 889074},
      {"Q10_H", SchemeKind::kCover, 2, 11079303380606709495u,
       889074, 0, 889074},
  };
  for (const std::string name : {"Q5_H", "Q8_H", "Q10_H"}) {
    const PreprocessResult pre = BuildSynopses(*data.db, Find(queries, name));
    for (const PinnedRun& want : pinned) {
      if (name != want.query) continue;
      ApxParams params;
      params.epsilon = 0.5;
      params.num_threads = want.threads;
      Rng rng(1);
      const CqaRunResult run =
          ApxCqaOnSynopses(pre, want.scheme, params, rng);
      Digest estimates;
      estimates.Add(run.answers.size());
      for (const CqaAnswer& answer : run.answers) {
        uint64_t bits = 0;
        std::memcpy(&bits, &answer.frequency, sizeof(bits));
        estimates.Add(bits);
      }
      SCOPED_TRACE("found {\"" + name + "\", SchemeKind::" +
                   Enumerator(want.scheme) + ", " +
                   std::to_string(want.threads) + ", " +
                   std::to_string(estimates.value()) + "u, " +
                   std::to_string(run.total_samples) + ", " +
                   std::to_string(run.estimator_samples) + ", " +
                   std::to_string(run.main_samples) + "}");
      EXPECT_FALSE(run.timed_out);
      EXPECT_EQ(estimates.value(), want.estimates_digest);
      EXPECT_EQ(run.total_samples, want.total_samples);
      EXPECT_EQ(run.estimator_samples, want.estimator_samples);
      EXPECT_EQ(run.main_samples, want.main_samples);
    }
  }
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
