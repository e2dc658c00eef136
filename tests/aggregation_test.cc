// Tests for src/cqa/aggregation.h: range-consistent answers to scalar
// aggregates across preferred-repair families (cf. Arenas et al., TCS'03,
// the paper's reference [2]).

#include <gtest/gtest.h>

#include "cleaning/cleaning.h"
#include "cqa/aggregation.h"
#include "cqa/planner.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

// Forced enumeration: the exact range engine these tests pin (COUNT
// would otherwise plan the polynomial component range).
EvalOptions Enumerate() {
  EvalOptions options;
  options.force_tier = CqaTier::kEnumeration;
  return options;
}

AggregateRange MustRange(const RepairProblem& problem,
                         const Priority& priority, RepairFamily family,
                         AggregateFunction fn,
                         std::string_view attribute = "V") {
  auto range = PlannedAggregateRange(problem, priority, family, "R",
                                     attribute, fn, Enumerate());
  CHECK(range.ok()) << range.status().ToString();
  return *range;
}

TEST(AggregationTest, ConsistentDatabaseHasPointRanges) {
  GeneratedInstance inst = MakeKeyGroupsInstance(3, 1);  // values 0,0,0
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  AggregateRange sum =
      MustRange(problem, empty, RepairFamily::kAll, AggregateFunction::kSum);
  EXPECT_TRUE(sum.has_value);
  EXPECT_FALSE(sum.empty_possible);
  EXPECT_DOUBLE_EQ(sum.lo, 0);
  EXPECT_DOUBLE_EQ(sum.hi, 0);
  AggregateRange count = MustRange(problem, empty, RepairFamily::kAll,
                                   AggregateFunction::kCount);
  EXPECT_DOUBLE_EQ(count.lo, 3);
  EXPECT_DOUBLE_EQ(count.hi, 3);
}

TEST(AggregationTest, RnRangesMatchHandComputation) {
  // r_2: keys 0,1 each with values {0,1}: per repair SUM ∈ {0,1,2}.
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  // Attribute B of MakeRnInstance's schema R(A, B).
  AggregateRange sum = MustRange(problem, empty, RepairFamily::kAll,
                                 AggregateFunction::kSum, "B");
  EXPECT_DOUBLE_EQ(sum.lo, 0);
  EXPECT_DOUBLE_EQ(sum.hi, 2);
  AggregateRange min = MustRange(problem, empty, RepairFamily::kAll,
                                 AggregateFunction::kMin, "B");
  EXPECT_DOUBLE_EQ(min.lo, 0);
  EXPECT_DOUBLE_EQ(min.hi, 1);  // repair {(0,1),(1,1)} has MIN = 1
  AggregateRange avg = MustRange(problem, empty, RepairFamily::kAll,
                                 AggregateFunction::kAvg, "B");
  EXPECT_DOUBLE_EQ(avg.lo, 0);
  EXPECT_DOUBLE_EQ(avg.hi, 1);
  AggregateRange count = MustRange(problem, empty, RepairFamily::kAll,
                                   AggregateFunction::kCount, "B");
  EXPECT_DOUBLE_EQ(count.lo, 2);  // every repair keeps one tuple per key
  EXPECT_DOUBLE_EQ(count.hi, 2);
}

TEST(AggregationTest, PreferencesNarrowRanges) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  // Prefer value 1 for both keys: ids (0,1) edge -> 1 wins; (2,3) -> 3.
  auto priority = Priority::Create(problem.graph(), {{1, 0}, {3, 2}});
  ASSERT_TRUE(priority.ok());
  AggregateRange rep_range = MustRange(problem, *priority, RepairFamily::kAll,
                                       AggregateFunction::kSum, "B");
  AggregateRange g_range = MustRange(problem, *priority,
                                     RepairFamily::kGlobal,
                                     AggregateFunction::kSum, "B");
  // X-Rep ⊆ Rep: the preferred range is contained in the plain range.
  EXPECT_LE(rep_range.lo, g_range.lo);
  EXPECT_GE(rep_range.hi, g_range.hi);
  // Total priority -> the G range is a point: both values 1.
  EXPECT_DOUBLE_EQ(g_range.lo, 2);
  EXPECT_DOUBLE_EQ(g_range.hi, 2);
}

TEST(AggregationTest, EmptyPossibleWhenRelationCanVanish) {
  // A single conflicting pair: both repairs keep one tuple, so MIN is
  // always defined. But a triangle of 3 mutually conflicting tuples in
  // relation R plus... simpler: a relation whose only tuples conflict
  // with tuples of another relation cannot happen under FDs (conflicts
  // are intra-relation). Instead check the defined case:
  GeneratedInstance inst = MakeKeyGroupsInstance(1, 3);
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  AggregateRange min = MustRange(problem, empty, RepairFamily::kAll,
                                 AggregateFunction::kMin);
  EXPECT_TRUE(min.has_value);
  EXPECT_FALSE(min.empty_possible);
  EXPECT_DOUBLE_EQ(min.lo, 0);
  EXPECT_DOUBLE_EQ(min.hi, 2);  // repairs keep exactly one of values 0,1,2
}

TEST(AggregationTest, RejectsNonNumericAttribute) {
  MgrScenario s = MakeMgrScenario();
  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  auto bad = PlannedAggregateRange(*problem, empty, RepairFamily::kAll, "Mgr",
                                   "Name", AggregateFunction::kMin,
                                   Enumerate());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // COUNT ignores the attribute and works.
  auto count =
      PlannedAggregateRange(*problem, empty, RepairFamily::kAll, "Mgr", "",
                            AggregateFunction::kCount, Enumerate());
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->lo, 2);
  EXPECT_DOUBLE_EQ(count->hi, 2);
}

TEST(AggregationTest, MgrSalaryRanges) {
  // Example 2's repairs: salaries {40k,30k}, {10k,20k}, {20k,30k}.
  MgrScenario s = MakeMgrScenario();
  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  auto sum = PlannedAggregateRange(*problem, empty, RepairFamily::kAll,
                                   "Mgr", "Salary",
                                   AggregateFunction::kSum, Enumerate());
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->lo, 30000);  // {10k, 20k}
  EXPECT_DOUBLE_EQ(sum->hi, 70000);  // {40k, 30k}
  // With Example 3's preference only r1, r2 remain: [30k, 70k] still,
  // but MAX narrows: r1 max 40k, r2 max 20k -> [20k, 40k] vs Rep's
  // [30k... compute: Rep maxima: r1:40k, r2:20k, r3:30k -> [20k,40k].
  auto priority = PriorityFromSourceReliability(*problem, {0, 1, 1, 0});
  ASSERT_TRUE(priority.ok());
  auto rep_max = PlannedAggregateRange(*problem, empty, RepairFamily::kAll,
                                       "Mgr", "Salary",
                                       AggregateFunction::kMax, Enumerate());
  auto g_max = PlannedAggregateRange(*problem, *priority,
                                     RepairFamily::kGlobal, "Mgr", "Salary",
                                     AggregateFunction::kMax, Enumerate());
  ASSERT_TRUE(rep_max.ok() && g_max.ok());
  EXPECT_DOUBLE_EQ(rep_max->lo, 20000);
  EXPECT_DOUBLE_EQ(rep_max->hi, 40000);
  EXPECT_DOUBLE_EQ(g_max->lo, 20000);
  EXPECT_DOUBLE_EQ(g_max->hi, 40000);
}

TEST(AggregationTest, CountStarRangePolynomialMatchesEnumeration) {
  Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 14, 3, 3, 2);
    RepairProblem problem = MustProblem(inst);
    Priority empty = Priority::Empty(problem.graph());
    auto fast = CountStarRange(problem, "R");
    ASSERT_TRUE(fast.ok());
    auto slow = PlannedAggregateRange(problem, empty, RepairFamily::kAll, "R",
                                      "", AggregateFunction::kCount,
                                      Enumerate());
    ASSERT_TRUE(slow.ok());
    EXPECT_DOUBLE_EQ(fast->lo, slow->lo) << "trial " << trial;
    EXPECT_DOUBLE_EQ(fast->hi, slow->hi) << "trial " << trial;
  }
}

TEST(AggregationTest, CountStarRangeOnLargeInstanceStaysFast) {
  // 2^200 repairs: enumeration is impossible, the component decomposition
  // answers instantly.
  GeneratedInstance rn = MakeRnInstance(200);
  RepairProblem problem = MustProblem(rn);
  auto range = CountStarRange(problem, "R");
  ASSERT_TRUE(range.ok());
  EXPECT_DOUBLE_EQ(range->lo, 200);
  EXPECT_DOUBLE_EQ(range->hi, 200);
}

TEST(AggregationTest, RangeToString) {
  AggregateRange r;
  EXPECT_EQ(r.ToString(), "[undefined]");
  r.has_value = true;
  r.lo = 1;
  r.hi = 2;
  EXPECT_NE(r.ToString().find("1"), std::string::npos);
  r.empty_possible = true;
  EXPECT_NE(r.ToString().find("empty possible"), std::string::npos);
}

TEST(AggregationTest, FunctionNames) {
  EXPECT_EQ(AggregateFunctionName(AggregateFunction::kMin), "MIN");
  EXPECT_EQ(AggregateFunctionName(AggregateFunction::kMax), "MAX");
  EXPECT_EQ(AggregateFunctionName(AggregateFunction::kSum), "SUM");
  EXPECT_EQ(AggregateFunctionName(AggregateFunction::kCount), "COUNT");
  EXPECT_EQ(AggregateFunctionName(AggregateFunction::kAvg), "AVG");
}

}  // namespace
}  // namespace prefrep
