// End-to-end reproduction of the paper's running example (Examples 1-3):
// the Mgr data-integration scenario, the queries Q1 and Q2, the cleaning
// baseline, and preferred consistent query answers under the
// source-reliability priority of Example 3.

#include <gtest/gtest.h>

#include "base/random.h"
#include "cleaning/cleaning.h"
#include "core/algorithm1.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

constexpr char kQ1[] =
    "exists x1, y1, z1, x2, y2, z2 . "
    "Mgr(Mary, x1, y1, z1) and Mgr(John, x2, y2, z2) and y1 < y2";

constexpr char kQ2[] =
    "exists x1, y1, z1, x2, y2, z2 . "
    "Mgr(Mary, x1, y1, z1) and Mgr(John, x2, y2, z2) and y1 > y2 and "
    "z1 < z2";

class PaperExamples : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = MakeMgrScenario();
    auto problem = RepairProblem::Create(scenario_.db.get(), scenario_.fds);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<RepairProblem>(*std::move(problem));
    auto q1 = ParseQuery(kQ1);
    ASSERT_TRUE(q1.ok()) << q1.status().ToString();
    q1_ = *std::move(q1);
    auto q2 = ParseQuery(kQ2);
    ASSERT_TRUE(q2.ok());
    q2_ = *std::move(q2);
    // Example 3's preference: s3 less reliable than both s1 and s2.
    auto priority =
        PriorityFromSourceReliability(*problem_, {0, 1, 1, 0});
    ASSERT_TRUE(priority.ok()) << priority.status().ToString();
    priority_ = std::make_unique<Priority>(*std::move(priority));
  }

  MgrScenario scenario_;
  std::unique_ptr<RepairProblem> problem_;
  std::unique_ptr<Query> q1_, q2_;
  std::unique_ptr<Priority> priority_;
};

TEST_F(PaperExamples, Example1InstanceIsInconsistentWithThreeConflicts) {
  EXPECT_FALSE(*IsConsistent(*scenario_.db, scenario_.fds));
  EXPECT_EQ(problem_->graph().edge_count(), 3);
}

TEST_F(PaperExamples, Example1Q1IsTrueInTheInconsistentDatabase) {
  // "The answer to Q1 in r is true but this is misleading."
  auto holds = EvalClosed(*scenario_.db, nullptr, *q1_);
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_TRUE(*holds);
}

TEST_F(PaperExamples, Example2TrueIsNotAConsistentAnswerToQ1) {
  // Q1 is false in r1 and r2, so true is not the consistent answer.
  Priority empty = Priority::Empty(problem_->graph());
  auto verdict = PlannedConsistentAnswer(*problem_, empty,
                                         RepairFamily::kAll, *q1_);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kUndetermined);
}

TEST_F(PaperExamples, Example3PriorityOrientsTwoOfThreeConflicts) {
  // s1 vs s2 reliability is unknown: the (Mary-R&D, John-R&D) conflict
  // stays unoriented; the two conflicts against s3 tuples are oriented.
  EXPECT_EQ(priority_->arc_count(), 2);
  EXPECT_TRUE(priority_->Dominates(scenario_.mary_rd, scenario_.mary_it));
  EXPECT_TRUE(priority_->Dominates(scenario_.john_rd, scenario_.john_pr));
  EXPECT_FALSE(priority_->Dominates(scenario_.mary_rd, scenario_.john_rd));
  EXPECT_FALSE(priority_->Dominates(scenario_.john_rd, scenario_.mary_rd));
}

TEST_F(PaperExamples, Example3CleaningLeavesAnInconsistentDatabase) {
  // "The cleaning of r with this information yields an inconsistent
  //  database r' = {(Mary,R&D,40k,3), (John,R&D,10k,2)}."
  CleaningReport report = CleanWithPolicy(*problem_, *priority_,
                                          UnresolvedConflictPolicy::kKeep);
  int n = scenario_.db->tuple_count();
  EXPECT_EQ(report.kept, DynamicBitset::FromIndices(
                             n, {scenario_.mary_rd, scenario_.john_rd}));
  EXPECT_EQ(report.residual_conflicts, 1);
  // The cleaned database is still inconsistent.
  Database cleaned = scenario_.db->Induce(report.kept);
  EXPECT_FALSE(*IsConsistent(cleaned, scenario_.fds));
}

TEST_F(PaperExamples, Example3Q2FalseInCleanedDatabase) {
  CleaningReport report = CleanWithPolicy(*problem_, *priority_,
                                          UnresolvedConflictPolicy::kKeep);
  auto holds = EvalClosed(*scenario_.db, &report.kept, *q2_);
  ASSERT_TRUE(holds.ok());
  EXPECT_FALSE(*holds);  // "The answer to this query ... is false."
}

TEST_F(PaperExamples, Example3FalseIsTheConsistentAnswerInCleanedDatabase) {
  // Treat the cleaned r' as a database of its own: its repairs are
  // {Mary-R&D} and {John-R&D}; Q2 is false in both.
  CleaningReport report = CleanWithPolicy(*problem_, *priority_,
                                          UnresolvedConflictPolicy::kKeep);
  Database cleaned = scenario_.db->Induce(report.kept);
  auto cleaned_problem = RepairProblem::Create(&cleaned, scenario_.fds);
  ASSERT_TRUE(cleaned_problem.ok());
  Priority empty = Priority::Empty(cleaned_problem->graph());
  auto verdict = PlannedConsistentAnswer(*cleaned_problem, empty,
                                         RepairFamily::kAll, *q2_);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyFalse);
}

TEST_F(PaperExamples, Example3Q2UndeterminedUnderPlainRep) {
  // "neither false nor true is a consistent answer to Q2 in r".
  Priority empty = Priority::Empty(problem_->graph());
  auto verdict = PlannedConsistentAnswer(*problem_, empty,
                                         RepairFamily::kAll, *q2_);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kUndetermined);
}

TEST_F(PaperExamples, Example3PreferredRepairsAreR1AndR2) {
  // "Intuitively the repairs r1 and r2 incorporate more of reliable
  //  information than the repair r3."
  int n = scenario_.db->tuple_count();
  DynamicBitset r1 = DynamicBitset::FromIndices(
      n, {scenario_.mary_rd, scenario_.john_pr});
  DynamicBitset r2 = DynamicBitset::FromIndices(
      n, {scenario_.john_rd, scenario_.mary_it});
  DynamicBitset r3 = DynamicBitset::FromIndices(
      n, {scenario_.mary_it, scenario_.john_pr});
  for (RepairFamily family :
       {RepairFamily::kLocal, RepairFamily::kSemiGlobal, RepairFamily::kGlobal,
        RepairFamily::kCommon}) {
    EXPECT_TRUE(
        *IsPreferredRepair(problem_->graph(), *priority_, family, r1))
        << RepairFamilyName(family);
    EXPECT_TRUE(
        *IsPreferredRepair(problem_->graph(), *priority_, family, r2))
        << RepairFamilyName(family);
    EXPECT_FALSE(
        *IsPreferredRepair(problem_->graph(), *priority_, family, r3))
        << RepairFamilyName(family);
  }
}

TEST_F(PaperExamples, Example3TrueIsThePlannedConsistentAnswerToQ2) {
  // The paper's punchline: with the source-reliability priority, true is
  // the preferred consistent answer to Q2 under every optimal family.
  for (RepairFamily family :
       {RepairFamily::kLocal, RepairFamily::kSemiGlobal, RepairFamily::kGlobal,
        RepairFamily::kCommon}) {
    auto verdict =
        PlannedConsistentAnswer(*problem_, *priority_, family, *q2_);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue)
        << RepairFamilyName(family);
  }
}

TEST_F(PaperExamples, Q1RemainsUndeterminedUnderThePreference) {
  // Q1 ("John earns more than Mary") is false in r1 (40k vs 30k) and
  // false in r2 (20k vs 10k): certainly false under the preference.
  auto verdict = PlannedConsistentAnswer(*problem_, *priority_,
                                         RepairFamily::kGlobal, *q1_);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyFalse);
}

TEST_F(PaperExamples, RemovePolicyLosesInformation) {
  // The kRemove policy yields a consistent but *non-maximal* database:
  // both R&D tuples vanish, so it is not a repair (information loss).
  CleaningReport report = CleanWithPolicy(*problem_, *priority_,
                                          UnresolvedConflictPolicy::kRemove);
  EXPECT_EQ(report.kept.Count(), 0);
  EXPECT_FALSE(problem_->IsRepair(report.kept));
  Database cleaned = scenario_.db->Induce(report.kept);
  EXPECT_TRUE(*IsConsistent(cleaned, scenario_.fds));
}

TEST_F(PaperExamples, Prop1TotalPriorityMakesCleaningChoiceIndependent) {
  // Prop. 1: for a *total* priority Algorithm 1 computes the unique clean
  // database regardless of the choice sequence. Make Example 3's priority
  // total by ranking the sources s1 > s2 > s3: every conflict edge is now
  // oriented, and the clean database is {Mary-R&D, John-PR} (Mary-R&D
  // beats both John-R&D and Mary-IT; removing John-R&D frees John-PR).
  int n = scenario_.db->tuple_count();
  std::vector<int64_t> ranks(n);
  ranks[scenario_.mary_rd] = 3;
  ranks[scenario_.john_rd] = 2;
  ranks[scenario_.mary_it] = 1;
  ranks[scenario_.john_pr] = 0;
  Priority total = Priority::FromRanking(problem_->graph(), ranks);
  ASSERT_TRUE(total.IsTotalFor(problem_->graph()));

  DynamicBitset golden = DynamicBitset::FromIndices(
      n, {scenario_.mary_rd, scenario_.john_pr});
  EXPECT_EQ(CleanDatabase(problem_->graph(), total), golden);
  EXPECT_EQ(CleanDatabaseTotal(problem_->graph(), total), golden);

  // Choice-independence: 10 shuffled choice orders, identical repairs.
  Rng rng(20060329);  // EDBT 2006 vintage; any fixed seed works.
  std::vector<int> choice_order(n);
  for (int i = 0; i < n; ++i) choice_order[i] = i;
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(choice_order);
    EXPECT_EQ(CleanDatabase(problem_->graph(), total, choice_order), golden)
        << "choice order trial " << trial;
  }
}

TEST_F(PaperExamples, Prop1ChoiceIndependenceOnRnUnderRandomTotalRanking) {
  // Prop. 1 on Example 4's r_6 (2^6 repairs): any ranking-derived total
  // priority must make Algorithm 1 choice-independent there too.
  GeneratedInstance rn = MakeRnInstance(6);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Rng rng(4);
  Priority total = RandomRankingPriority(rng, problem->graph(), 1.0);
  ASSERT_TRUE(total.IsTotalFor(problem->graph()));

  DynamicBitset golden = CleanDatabase(problem->graph(), total);
  EXPECT_TRUE(problem->IsRepair(golden));
  EXPECT_EQ(CleanDatabaseTotal(problem->graph(), total), golden);
  std::vector<int> choice_order(problem->tuple_count());
  for (int i = 0; i < problem->tuple_count(); ++i) choice_order[i] = i;
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(choice_order);
    EXPECT_EQ(CleanDatabase(problem->graph(), total, choice_order), golden)
        << "choice order trial " << trial;
  }
}

TEST_F(PaperExamples, OpenQueryWhoManagesWhat) {
  // Consistent answers to Mgr(x, y, s, r) under the preference: no tuple
  // is in all preferred repairs (r1 and r2 are disjoint), so the certain
  // answer set is empty; under a total priority it is the clean database.
  auto open = ParseQuery("Mgr(x, y, s, r)");
  ASSERT_TRUE(open.ok());
  auto answers = PlannedConsistentAnswers(*problem_, *priority_,
                                          RepairFamily::kGlobal, **open);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->rows.empty());
}

}  // namespace
}  // namespace prefrep
