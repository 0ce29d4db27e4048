#include "cqa/invariants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "cqa/conflict_worlds.h"
#include "cqa/symbolic_space.h"
#include "cqa/synopsis.h"
#include "storage/audit.h"
#include "storage/block_index.h"
#include "storage/repairs.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

/// Two blocks (sizes 2 and 3), two images: H_0 = {(0,0)}, H_1 = {(0,1),
/// (1,2)}. Weights: w_0 = 1/2, w_1 = 1/6.
Synopsis SmallSynopsis() {
  SynopsisBuilder builder;
  builder.AddBlock(Synopsis::Block{2, 0, 0});
  builder.AddBlock(Synopsis::Block{3, 0, 1});
  builder.AddImage({{0, 0}});
  builder.AddImage({{0, 1}, {1, 2}});
  return builder.Finish();
}

// ---------------------------------------------------------------------------
// Synopsis / symbolic-space structure.
// ---------------------------------------------------------------------------

TEST(InvariantsTest, WellFormedSynopsisPasses) {
  Synopsis synopsis = SmallSynopsis();
  std::string why;
  EXPECT_TRUE(audit::CheckSynopsis(synopsis, &why)) << why;

  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Synopsis random = testing::MakeRandomSynopsis(rng, 4, 3, 5, 3);
    EXPECT_TRUE(audit::CheckSynopsis(random, &why)) << why;
  }
}

// SynopsisBuilder's own checks (CQA_CHECK, active in every build)
// already refuse empty blocks, so CheckSynopsis's "empty block" branch is
// pure defense-in-depth against in-memory corruption. Verify the layering:
// the API aborts before an invalid synopsis can ever reach the audit.
TEST(InvariantsTest, ApiRejectsEmptyBlockBeforeAuditRuns) {
  EXPECT_DEATH(
      {
        SynopsisBuilder builder;
        builder.AddBlock(Synopsis::Block{0, 0, 0});
      },
      "block.size >= 1");
}

TEST(InvariantsTest, FreshSymbolicSpacePasses) {
  Synopsis synopsis = SmallSynopsis();
  SymbolicSpace space(&synopsis);
  std::string why;
  EXPECT_TRUE(audit::CheckSymbolicSpace(space, &why)) << why;
  EXPECT_DOUBLE_EQ(space.total_weight(), 0.5 + 1.0 / 6.0);
}

// ---------------------------------------------------------------------------
// Sampled elements: (i, I) ∈ S• requires H_i ⊆ I.
// ---------------------------------------------------------------------------

TEST(InvariantsTest, SampledElementsAreInTheSpace) {
  Synopsis synopsis = SmallSynopsis();
  SymbolicSpace space(&synopsis);
  Rng rng(11);
  Synopsis::Choice choice;
  std::string why;
  for (int draw = 0; draw < 200; ++draw) {
    size_t i = space.SampleElement(rng, &choice);
    EXPECT_TRUE(audit::CheckSampledElement(space, i, choice, &why)) << why;
  }
}

TEST(InvariantsTest, SampledElementRejectsCorruption) {
  Synopsis synopsis = SmallSynopsis();
  SymbolicSpace space(&synopsis);
  std::string why;

  // Image index past the image list.
  Synopsis::Choice choice = {0, 0};
  EXPECT_FALSE(audit::CheckSampledElement(space, 99, choice, &why));
  EXPECT_NE(why.find("out of range"), std::string::npos) << why;

  // Choice with the wrong number of blocks.
  Synopsis::Choice truncated = {0};
  EXPECT_FALSE(audit::CheckSampledElement(space, 0, truncated, &why));

  // Choice tid past its block's cardinality.
  Synopsis::Choice oob = {0, 7};
  EXPECT_FALSE(audit::CheckSampledElement(space, 0, oob, &why));

  // H_0 = {(0,0)} is not contained in a choice picking tid 1 of block 0.
  Synopsis::Choice not_containing = {1, 0};
  EXPECT_FALSE(audit::CheckSampledElement(space, 0, not_containing, &why));
  EXPECT_NE(why.find("not contained"), std::string::npos) << why;
}

TEST(InvariantsTest, ImageInPrefixChecksEarlyAccept) {
  Synopsis synopsis = SmallSynopsis();
  std::string why;
  // H_0 = {(0,0)} completes after drawing block 0 only.
  Synopsis::Choice choice = {0, 0};
  EXPECT_TRUE(audit::CheckImageInPrefix(synopsis, 0, choice, 1, &why)) << why;
  // Claiming completion before block 0 was drawn is a violation.
  EXPECT_FALSE(audit::CheckImageInPrefix(synopsis, 0, choice, 0, &why));
  // As is a drawn prefix that does not actually pin the image's fact.
  Synopsis::Choice mismatched = {1, 0};
  EXPECT_FALSE(audit::CheckImageInPrefix(synopsis, 0, mismatched, 1, &why));
  // Or a prefix longer than the choice itself.
  EXPECT_FALSE(audit::CheckImageInPrefix(synopsis, 0, choice, 3, &why));
}

TEST(InvariantsTest, NaturalDrawMustMatchNaiveContainment) {
  Synopsis synopsis = SmallSynopsis();
  std::string why;
  Synopsis::Choice containing = {0, 0};  // Contains H_0.
  EXPECT_TRUE(audit::CheckNaturalDraw(synopsis, containing, 1.0, &why)) << why;
  EXPECT_FALSE(audit::CheckNaturalDraw(synopsis, containing, 0.0, &why));

  Synopsis::Choice missing = {1, 0};  // Contains neither image.
  EXPECT_TRUE(audit::CheckNaturalDraw(synopsis, missing, 0.0, &why)) << why;
  EXPECT_FALSE(audit::CheckNaturalDraw(synopsis, missing, 1.0, &why));
}

// SmallSynopsis has 2·3 = 6 conflict worlds w = 3·t_0 + t_1 (the first
// block most significant). H_0 lies in worlds 0-2, H_1 in world 5 only.
TEST(InvariantsTest, WorldMaskMustMatchNaiveContainment) {
  Synopsis synopsis = SmallSynopsis();
  ConflictWorldTable table(&synopsis);
  ASSERT_EQ(table.num_worlds(), 6u);
  std::string why;
  for (uint32_t w = 0; w < 6; ++w) {
    EXPECT_TRUE(audit::CheckWorldMask(table, w, table.Lookup(w), &why))
        << why;
  }
  constexpr uint64_t kFilled = ConflictWorldTable::kFilled;
  EXPECT_EQ(table.Lookup(0), kFilled | 1);
  EXPECT_EQ(table.Lookup(3), kFilled);
  EXPECT_EQ(table.Lookup(5), kFilled | 2);
  EXPECT_FALSE(audit::CheckWorldMask(table, 3, kFilled | 1, &why));
  EXPECT_FALSE(audit::CheckWorldMask(table, 0, 1, &why));  // Not filled.
  EXPECT_FALSE(audit::CheckWorldMask(table, 0, kFilled | 1 | 4, &why));
  EXPECT_FALSE(audit::CheckWorldMask(table, 6, kFilled, &why));

  EXPECT_TRUE(audit::CheckWorldWitness(kFilled | 2, 1, &why)) << why;
  EXPECT_FALSE(audit::CheckWorldWitness(kFilled | 1, 1, &why));
  EXPECT_FALSE(audit::CheckWorldWitness(2, 1, &why));  // Not filled.
}

// ---------------------------------------------------------------------------
// Estimator pre/postconditions.
// ---------------------------------------------------------------------------

TEST(InvariantsTest, OptEstimateParamsMustBeInOpenUnitInterval) {
  std::string why;
  EXPECT_TRUE(audit::CheckOptEstimateParams(0.1, 0.05, &why)) << why;
  EXPECT_FALSE(audit::CheckOptEstimateParams(0.0, 0.05, &why));
  EXPECT_FALSE(audit::CheckOptEstimateParams(1.0, 0.05, &why));
  EXPECT_FALSE(audit::CheckOptEstimateParams(0.1, 0.0, &why));
  EXPECT_FALSE(audit::CheckOptEstimateParams(0.1, 1.0, &why));
}

TEST(InvariantsTest, OptEstimateResultPostconditions) {
  OptEstimateResult good;
  good.num_iterations = 10;
  good.samples_used = 42;
  good.mu_hat = 0.5;
  good.rho_hat = 0.25;
  std::string why;
  EXPECT_TRUE(audit::CheckOptEstimateResult(good, 0.1, &why)) << why;

  OptEstimateResult zero_mu = good;
  zero_mu.mu_hat = 0.0;
  EXPECT_FALSE(audit::CheckOptEstimateResult(zero_mu, 0.1, &why));

  OptEstimateResult clamped = good;
  clamped.rho_hat = 0.01;  // Below epsilon * mu_hat = 0.05.
  EXPECT_FALSE(audit::CheckOptEstimateResult(clamped, 0.1, &why));
  EXPECT_NE(why.find("clamp"), std::string::npos) << why;

  OptEstimateResult no_iterations = good;
  no_iterations.num_iterations = 0;
  EXPECT_FALSE(audit::CheckOptEstimateResult(no_iterations, 0.1, &why));

  // A timed-out result carries no usable fields: always accepted.
  OptEstimateResult timed_out;
  timed_out.timed_out = true;
  EXPECT_TRUE(audit::CheckOptEstimateResult(timed_out, 0.1, &why)) << why;
}

TEST(InvariantsTest, MonteCarloResultConsistency) {
  MonteCarloResult good;
  good.estimate = 0.25;
  good.main_samples = 100;
  good.per_thread_samples = {60, 40};
  std::string why;
  EXPECT_TRUE(audit::CheckMonteCarloResult(good, &why)) << why;

  MonteCarloResult mismatch = good;
  mismatch.per_thread_samples = {60, 41};
  EXPECT_FALSE(audit::CheckMonteCarloResult(mismatch, &why));
  EXPECT_NE(why.find("per-thread"), std::string::npos) << why;

  MonteCarloResult negative_time = good;
  negative_time.main_seconds = -1.0;
  EXPECT_FALSE(audit::CheckMonteCarloResult(negative_time, &why));

  MonteCarloResult out_of_range = good;
  out_of_range.estimate = 1.5;
  EXPECT_FALSE(audit::CheckMonteCarloResult(out_of_range, &why));
}

TEST(InvariantsTest, CoverageResultRespectsBudget) {
  CoverageResult good;
  good.normalized_estimate = 0.5;
  good.steps = 100;  // A run that exhausts its budget stops at N steps.
  good.trials = 30;
  std::string why;
  EXPECT_TRUE(audit::CheckCoverageResult(good, 100, &why)) << why;

  CoverageResult overran = good;
  overran.steps = 101;
  EXPECT_FALSE(audit::CheckCoverageResult(overran, 100, &why));
  EXPECT_NE(why.find("budget"), std::string::npos) << why;

  CoverageResult excess_trials = good;
  excess_trials.trials = good.steps + 1;
  EXPECT_FALSE(audit::CheckCoverageResult(excess_trials, 100, &why));

  CoverageResult negative = good;
  negative.normalized_estimate = -0.1;
  EXPECT_FALSE(audit::CheckCoverageResult(negative, 100, &why));
}

// ---------------------------------------------------------------------------
// Storage-layer audits.
// ---------------------------------------------------------------------------

TEST(InvariantsTest, FreshBlockIndexPartitionsTheDatabase) {
  EmployeeFixture fx;
  BlockIndex index = BlockIndex::Build(*fx.db);
  std::string why;
  EXPECT_TRUE(audit::CheckBlockPartition(*fx.db, index, &why)) << why;
}

TEST(InvariantsTest, StaleBlockIndexIsRejected) {
  EmployeeFixture fx;
  BlockIndex index = BlockIndex::Build(*fx.db);
  // Inserting after Build leaves the index covering 4 of 5 rows.
  fx.db->Insert("employee", {Value(3), Value("Eve"), Value("HR")});
  std::string why;
  EXPECT_FALSE(audit::CheckBlockPartition(*fx.db, index, &why));
  EXPECT_NE(why.find("cover"), std::string::npos) << why;
}

/// Audits an index built over one relation r(k double, v int), keyed on
/// k, against another database of the same size whose keys are
/// `audited_keys`; returns the audit's diagnostic, empty if it passed.
std::string AuditIndexOfOtherKeys(const std::vector<double>& built_keys,
                                  const std::vector<double>& audited_keys) {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"k", ValueType::kDouble}, {"v", ValueType::kInt}}, {0}));
  Database built(&schema);
  Database audited(&schema);
  for (size_t row = 0; row < built_keys.size(); ++row) {
    const int v = static_cast<int>(row);
    built.Insert("r", {Value(built_keys[row]), Value(v)});
    audited.Insert("r", {Value(audited_keys[row]), Value(v)});
  }
  std::string why;
  EXPECT_TRUE(audit::CheckBlockPartition(built, BlockIndex::Build(built),
                                         &why))
      << why;
  why.clear();
  audit::CheckBlockPartition(audited, BlockIndex::Build(built), &why);
  return why;
}

TEST(InvariantsTest, BlockWhoseRowsDifferOnTheKeyIsRejected) {
  EXPECT_NE(AuditIndexOfOtherKeys({1, 1, 2}, {1, 2, 2})
                .find("differs on the key"),
            std::string::npos);
  // NaN equals no key, not even another NaN.
  const double nan = std::nan("");
  EXPECT_NE(AuditIndexOfOtherKeys({1.5, 1.5}, {nan, nan})
                .find("differs on the key"),
            std::string::npos);
}

TEST(InvariantsTest, BlocksSharingAKeyAreRejected) {
  EXPECT_NE(AuditIndexOfOtherKeys({1, 2, 3}, {1, 1, 3})
                .find("key of an earlier block"),
            std::string::npos);
  // 0.0 and -0.0 are one key.
  const double nan = std::nan("");
  EXPECT_NE(AuditIndexOfOtherKeys({nan, nan}, {0.0, -0.0})
                .find("key of an earlier block"),
            std::string::npos);
}

TEST(InvariantsTest, RepairSelectionsPassAndCorruptionsFail) {
  EmployeeFixture fx;
  BlockIndex index = BlockIndex::Build(*fx.db);
  std::vector<FactRef> first;
  ForEachRepair(*fx.db, index, [&](const std::vector<FactRef>& selection) {
    first = selection;
    return false;  // Keep only the first one.
  });
  ASSERT_EQ(first.size(), 2u);
  std::string why;
  EXPECT_TRUE(audit::CheckRepairSelection(*fx.db, index, first, &why)) << why;

  // Two facts from the same block cannot be a repair selection.
  std::vector<FactRef> duplicated = {first[0], first[0]};
  EXPECT_FALSE(audit::CheckRepairSelection(*fx.db, index, duplicated, &why));

  // A selection must name one fact per block.
  std::vector<FactRef> truncated = {first[0]};
  EXPECT_FALSE(audit::CheckRepairSelection(*fx.db, index, truncated, &why));
  std::vector<FactRef> padded = {first[0], first[1], first[1]};
  EXPECT_FALSE(audit::CheckRepairSelection(*fx.db, index, padded, &why));
}

// ---------------------------------------------------------------------------
// The CQA_AUDIT / CQA_DCHECK macros themselves: in audit-enabled builds a
// violated invariant aborts with a diagnostic; in plain Release builds the
// macros compile out and these scenarios would proceed silently.
// ---------------------------------------------------------------------------

#if CQA_AUDIT_ENABLED

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, AuditMacroAbortsWithDiagnostic) {
  EXPECT_DEATH(CQA_AUDIT(audit::CheckOptEstimateParams, 2.0, 0.5),
               "CQA_AUDIT failed.*CheckOptEstimateParams.*epsilon");
}

TEST(InvariantsDeathTest, DcheckAborts) {
  EXPECT_DEATH(CQA_DCHECK(1 == 2), "CQA_CHECK failed");
}

TEST(InvariantsDeathTest, CorruptSamplerStateIsCaughtOnTheDrawPath) {
  // A well-formed space, but a draw result tampered with after the fact —
  // the audit wired into the samplers' accept paths must catch exactly
  // this class of corruption.
  Synopsis synopsis = SmallSynopsis();
  SymbolicSpace space(&synopsis);
  Rng rng(3);
  Synopsis::Choice choice;
  size_t i = space.SampleElement(rng, &choice);
  choice[synopsis.image(i)[0].block] ^= 1u;  // Unpin one fact.
  EXPECT_DEATH(CQA_AUDIT(audit::CheckSampledElement, space, i, choice),
               "CQA_AUDIT failed");
}

TEST(InvariantsDeathTest, StaleIndexKillsRepairEnumeration) {
  EmployeeFixture fx;
  BlockIndex index = BlockIndex::Build(*fx.db);
  fx.db->Insert("employee", {Value(3), Value("Eve"), Value("HR")});
  EXPECT_DEATH(ForEachRepair(*fx.db, index,
                             [](const std::vector<FactRef>&) { return true; }),
               "CheckBlockPartition");
}

#else

// In Release-without-CQABENCH_AUDIT builds the audit macros compile to
// unevaluated-sizeof forms; instead of skipping (which read as 561/562
// in every Release run), prove the compiled-out contract directly: the
// argument expressions must never run and a failing predicate must not
// abort. This is what Release benchmark numbers rely on — the audits
// cost literally zero evaluations.

namespace {
int g_audit_side_effects = 0;
bool AlwaysFalseAudit(int /*arg*/, std::string* /*why*/) { return false; }
int CountingArg() {
  ++g_audit_side_effects;
  return 1;
}
}  // namespace

TEST(InvariantsDeathTest, DisabledAuditMacrosAreInert) {
  g_audit_side_effects = 0;
  // A failing predicate with a side-effecting argument: the disabled
  // CQA_AUDIT must neither evaluate the argument nor abort.
  CQA_AUDIT(AlwaysFalseAudit, CountingArg());
  EXPECT_EQ(g_audit_side_effects, 0);
  // Same for CQA_DCHECK: a false condition must not abort and its
  // operand must not run.
  CQA_DCHECK(CountingArg() == 2);
  CQA_DCHECK_MSG(CountingArg() == 2, "never evaluated");
  EXPECT_EQ(g_audit_side_effects, 0);
}

#endif  // CQA_AUDIT_ENABLED

}  // namespace
}  // namespace cqa
