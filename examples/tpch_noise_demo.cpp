// End-to-end benchmark-infrastructure demo on TPC-H: generate a
// consistent warehouse, inject query-aware noise (§6.1), inspect the
// resulting block structure, and answer a returned-items query (the Q10
// template) with approximate relative frequencies.

#include <algorithm>
#include <cstdio>

#include "cqa/apx_cqa.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "query/parser.h"
#include "storage/block_index.h"

using namespace cqa;

int main() {
  // 1. A small consistent TPC-H instance (dbgen's role in the paper).
  TpchOptions options;
  options.scale_factor = 0.0005;
  Dataset d = GenerateTpch(options);
  std::printf("generated TPC-H SF=%g: %zu facts, consistent: %s\n",
              options.scale_factor, d.db->NumFacts(),
              d.db->SatisfiesKeys() ? "yes" : "no");

  // 2. The query under investigation: customers with returned lineitems
  //    (the CQ reduction of TPC-H Q10).
  ConjunctiveQuery q = MustParseCq(
      *d.schema,
      "Q(CK, CN, NN) :- customer(CK, CN, CA, NK, CP, CB, CS, CC),"
      " orders(OK, CK, OS, TP, OD, OP, CL, SP, OC),"
      " lineitem(OK, PK, SK, LN, QT, EP, DI, TX, 'R', LS, SD, CD, RD, SI,"
      " SM, CM),"
      " nation(NK, NN, RK, NC).");

  // 3. Inject 40% query-aware noise with blocks of 2..5 facts.
  Rng rng(42);
  NoiseOptions noise;
  noise.p = 0.4;
  NoiseStats stats = AddQueryAwareNoise(d.db.get(), q, noise, rng);
  // The database's block index, built here once; BuildSynopses below
  // reuses it.
  std::printf(
      "noise: %zu query-relevant facts, %zu selected, %zu facts added; "
      "%.1f%% of facts now sit in conflicting blocks\n",
      stats.relevant_facts, stats.selected_facts, stats.facts_added,
      100.0 * d.db->block_index()->InconsistencyRatio(*d.db));

  // 4. Preprocess once, report the dynamic parameters of §6.1.
  PreprocessResult pre = BuildSynopses(*d.db, q);
  std::printf(
      "syn_{Σ,Q}(D): %zu answers, %zu homomorphic images, balance %.2f "
      "(preprocessing %.3fs)\n",
      pre.NumAnswers(), pre.stats().num_distinct_images, pre.Balance(),
      pre.stats().seconds);

  // 5. Approximate CQA with the indicated scheme for non-Boolean CQs
  //    (take-home message 2: KLM), listing the least certain customers —
  //    the records a cleaning pipeline should look at first.
  ApxParams params;
  Rng scheme_rng(7);
  CqaRunResult run = ApxCqaOnSynopses(pre, SchemeKind::kKlm, params,
                                      scheme_rng);
  std::vector<CqaAnswer> answers = run.answers;
  std::sort(answers.begin(), answers.end(),
            [](const CqaAnswer& a, const CqaAnswer& b) {
              return a.frequency < b.frequency;
            });
  std::printf("\nleast-certain answers (KLM, ε=0.1, δ=0.25, %.3fs):\n",
              run.scheme_seconds);
  for (size_t i = 0; i < answers.size() && i < 5; ++i) {
    std::printf("  %-55s freq ≈ %.3f\n",
                TupleToString(answers[i].tuple).c_str(),
                answers[i].frequency);
  }
  size_t certain = 0;
  for (const CqaAnswer& a : answers) {
    if (a.frequency > 0.99) ++certain;
  }
  std::printf("\n%zu of %zu answers are (approximately) certain.\n",
              certain, answers.size());
  return 0;
}
