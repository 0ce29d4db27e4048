// Cross-module integration tests: the full pipeline — TPC-H generation,
// query-aware noise, SQG/DQG queries, preprocessing, all four schemes —
// validated against the exact inclusion-exclusion oracle on real (small)
// scenario grids.

#include <gtest/gtest.h>

#include "bench/scenario.h"
#include "cqa/apx_cqa.h"
#include "cqa/exact.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "query/parser.h"

namespace cqa {
namespace {

TEST(IntegrationTest, SchemesMatchExactOracleOnScenarioGrid) {
  ScenarioGridOptions options;
  options.scale_factor = 0.0003;
  options.seed = 17;
  options.join_levels = {1, 2};
  options.queries_per_join = 1;
  options.noise_levels = {0.5};
  options.balance_targets = {0.0, 0.5};
  options.min_base_homomorphisms = 5;
  ScenarioGrid grid = ScenarioGrid::Build(options);
  ASSERT_FALSE(grid.pairs().empty());

  ApxParams params;
  params.epsilon = 0.1;
  params.delta = 0.05;
  size_t checked = 0;
  for (const ScenarioPair& pair : grid.pairs()) {
    PreprocessResult pre = BuildSynopses(*pair.db, pair.query);
    for (const AnswerSynopsis& as : pre.answers()) {
      std::optional<double> exact =
          ExactRatioInclusionExclusion(as.synopsis, /*max_images=*/16);
      if (!exact.has_value()) continue;  // Too many images for the oracle.
      for (SchemeKind kind : AllSchemeKinds()) {
        auto scheme = ApxRelativeFreqScheme::Create(kind);
        Rng rng(1000 + checked);
        ApxResult r = scheme->Run(as.synopsis, params, rng);
        ASSERT_FALSE(r.timed_out);
        EXPECT_NEAR(r.estimate, *exact, 2 * params.epsilon * *exact + 1e-9)
            << SchemeKindName(kind) << " vs exact on "
            << as.synopsis.DebugString();
      }
      if (++checked >= 12) return;  // A dozen synopses is plenty.
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(IntegrationTest, ValidationWorkloadRunsEndToEnd) {
  TpchOptions tpch;
  tpch.scale_factor = 0.0005;
  Dataset d = GenerateTpch(tpch);
  // The selective Q19 template: noise, preprocess, all schemes, compare
  // against the exact oracle (its synopsis is small).
  std::vector<NamedQuery> workload = TpchValidationQueries(*d.schema);
  const NamedQuery* q19 = nullptr;
  for (const NamedQuery& q : workload) {
    if (q.name == "Q19_H") q19 = &q;
  }
  ASSERT_NE(q19, nullptr);

  Rng rng(5);
  NoiseOptions noise;
  noise.p = 0.5;
  AddQueryAwareNoise(d.db.get(), q19->query, noise, rng);
  PreprocessResult pre = BuildSynopses(*d.db, q19->query);
  if (pre.NumAnswers() == 0) GTEST_SKIP() << "Q19 empty at this SF";
  const Synopsis& s = pre.answers()[0].synopsis;
  std::optional<double> exact = ExactRatioInclusionExclusion(s, 20);
  if (!exact.has_value()) GTEST_SKIP() << "synopsis too large for oracle";
  for (SchemeKind kind : AllSchemeKinds()) {
    auto scheme = ApxRelativeFreqScheme::Create(kind);
    Rng scheme_rng(6);
    ApxResult r =
        scheme->Run(s, ApxParams{0.1, 0.05}, scheme_rng);
    EXPECT_NEAR(r.estimate, *exact, 2 * 0.1 * *exact + 1e-9)
        << SchemeKindName(kind);
  }
}

TEST(IntegrationTest, FrequenciesSurviveNoiseMonotonicity) {
  // Growing a block can only decrease the frequency of answers whose
  // witnesses sit in that block (more repairs omit them). Sanity-check on
  // a single-atom query where this is exact: freq = 1/|block|.
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
  Database db(&schema);
  for (int k = 0; k < 10; ++k) db.Insert("r", {Value(k), Value(k)});
  ConjunctiveQuery q = MustParseCq(schema, "Q(V) :- r(K, V).");

  Rng rng(8);
  NoiseOptions noise;
  noise.p = 1.0;
  AddQueryAwareNoise(&db, q, noise, rng);
  BlockIndex index = BlockIndex::Build(db);

  PreprocessResult pre = BuildSynopses(db, q);
  for (const AnswerSynopsis& as : pre.answers()) {
    double exact = *ExactRatioByEnumeration(as.synopsis);
    // An answer witnessed by a single fact in a single block of size s
    // has frequency exactly 1/s <= 1/2 after p = 1 noise.
    if (as.synopsis.NumImages() == 1 &&
        as.synopsis.image(0).size() == 1) {
      size_t s = as.synopsis.blocks()[0].size;
      EXPECT_GE(s, 2u);
      EXPECT_DOUBLE_EQ(exact, 1.0 / static_cast<double>(s));
    }
    Rng scheme_rng(9);
    auto scheme = ApxRelativeFreqScheme::Create(SchemeKind::kKlm);
    ApxResult r = scheme->Run(as.synopsis, ApxParams{0.1, 0.05}, scheme_rng);
    EXPECT_NEAR(r.estimate, exact, 2 * 0.1 * exact + 1e-9);
  }
}

TEST(IntegrationTest, CertainAnswersAreFrequencyOne) {
  // Facts outside every conflicting block yield frequency exactly 1; the
  // schemes must agree (their estimate is a ratio of identical counts).
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kInt}, {"v", ValueType::kInt}}, {0}));
  Database db(&schema);
  db.Insert("r", {Value(1), Value(10)});  // Clean.
  db.Insert("r", {Value(2), Value(20)});  // Conflicted below.
  db.Insert("r", {Value(2), Value(21)});
  ConjunctiveQuery q = MustParseCq(schema, "Q(V) :- r(K, V).");
  for (SchemeKind kind : AllSchemeKinds()) {
    Rng rng(10);
    CqaRunResult run = ApxCqa(db, q, kind, ApxParams{}, rng);
    for (const CqaAnswer& a : run.answers) {
      if (a.tuple[0] == Value(10)) {
        EXPECT_DOUBLE_EQ(a.frequency, 1.0) << SchemeKindName(kind);
      } else {
        EXPECT_NEAR(a.frequency, 0.5, 0.15) << SchemeKindName(kind);
      }
    }
  }
}

}  // namespace
}  // namespace cqa
