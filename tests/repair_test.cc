// Unit tests for src/repair: repair checking, enumeration and exact
// counting, including the paper's Example 4 (r_n has 2^n repairs).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/families.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

// The repairs are the Rep family, which reads no priority.
Result<std::vector<DynamicBitset>> AllRepairs(const RepairProblem& problem) {
  return PreferredRepairs(problem.graph(), Priority(), RepairFamily::kAll);
}

TEST(RepairProblemTest, ConsistentDatabaseHasItselfAsOnlyRepair) {
  GeneratedInstance inst = MakeKeyGroupsInstance(3, 1);  // no conflicts
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  auto repairs = AllRepairs(*problem);
  ASSERT_TRUE(repairs.ok());
  ASSERT_EQ(repairs->size(), 1u);
  EXPECT_EQ((*repairs)[0], inst.db->AllTuples());
}

TEST(RepairProblemTest, Example4RepairCountIsTwoToTheN) {
  for (int n : {0, 1, 3, 6}) {
    GeneratedInstance rn = MakeRnInstance(n);
    auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
    ASSERT_TRUE(problem.ok());
    EXPECT_EQ(problem->CountRepairs().ToString(),
              BigUint::PowerOfTwo(n).ToString())
        << "n=" << n;
  }
}

TEST(RepairProblemTest, Example4CountBeyondWordSize) {
  // The paper's point: exponentially many repairs. n=70 > 2^63.
  GeneratedInstance rn = MakeRnInstance(70);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->CountRepairs().ToString(),
            BigUint::PowerOfTwo(70).ToString());
}

TEST(RepairProblemTest, Example4RepairsAreChoiceFunctions) {
  // Repairs of r_n = all functions {0..n-1} -> {0,1}: pick one tuple of
  // each conflicting pair (2i, 2i+1).
  GeneratedInstance rn = MakeRnInstance(3);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  auto repairs = AllRepairs(*problem);
  ASSERT_TRUE(repairs.ok());
  EXPECT_EQ(repairs->size(), 8u);
  for (const DynamicBitset& r : *repairs) {
    EXPECT_EQ(r.Count(), 3);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NE(r.Test(2 * i), r.Test(2 * i + 1));
    }
  }
}

TEST(RepairProblemTest, IsRepairMatchesEnumeration) {
  GeneratedInstance inst = MakeChainInstance(6);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  auto repairs = AllRepairs(*problem);
  ASSERT_TRUE(repairs.ok());
  std::set<DynamicBitset> repair_set(repairs->begin(), repairs->end());
  // Every enumerated repair passes IsRepair; strict subsets do not.
  for (const DynamicBitset& r : *repairs) {
    EXPECT_TRUE(problem->IsRepair(r));
    DynamicBitset smaller = r;
    smaller.Reset(r.FirstSetBit());
    EXPECT_FALSE(problem->IsRepair(smaller));
  }
  // The full (inconsistent) database is not a repair.
  EXPECT_FALSE(problem->IsRepair(inst.db->AllTuples()));
}

TEST(RepairProblemTest, MgrScenarioHasThePaperThreeRepairs) {
  // Example 2: r1 = {Mary-R&D, John-PR}, r2 = {John-R&D, Mary-IT},
  // r3 = {Mary-IT, John-PR}.
  MgrScenario s = MakeMgrScenario();
  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  ASSERT_TRUE(problem.ok());
  auto repairs = AllRepairs(*problem);
  ASSERT_TRUE(repairs.ok());
  std::set<DynamicBitset> actual(repairs->begin(), repairs->end());
  int n = s.db->tuple_count();
  std::set<DynamicBitset> expected = {
      DynamicBitset::FromIndices(n, {s.mary_rd, s.john_pr}),
      DynamicBitset::FromIndices(n, {s.john_rd, s.mary_it}),
      DynamicBitset::FromIndices(n, {s.mary_it, s.john_pr})};
  EXPECT_EQ(actual, expected);
}

TEST(RepairProblemTest, MaterializeRepairIsConsistent) {
  MgrScenario s = MakeMgrScenario();
  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  ASSERT_TRUE(problem.ok());
  auto repairs = AllRepairs(*problem);
  ASSERT_TRUE(repairs.ok());
  for (const DynamicBitset& r : *repairs) {
    Database repaired = problem->MaterializeRepair(r);
    EXPECT_EQ(repaired.tuple_count(), r.Count());
    EXPECT_TRUE(*IsConsistent(repaired, s.fds));
  }
}

TEST(RepairProblemTest, KeyGroupsYieldOneTuplePerGroup) {
  GeneratedInstance inst = MakeKeyGroupsInstance(3, 4);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  // 4 choices per group, 3 groups.
  EXPECT_EQ(problem->CountRepairs().ToString(), "64");
  auto repairs = AllRepairs(*problem);
  ASSERT_TRUE(repairs.ok());
  for (const DynamicBitset& r : *repairs) EXPECT_EQ(r.Count(), 3);
}

TEST(RepairProblemTest, CycleInstanceRepairs) {
  // 2k-cycle has L(2k) = Lucas-number many maximal independent sets:
  // k=3 -> 5 repairs (two triples + three antipodal pairs).
  GeneratedInstance inst = MakeCycleInstance(3);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->CountRepairs().ToString(), "5");
}

TEST(RepairProblemTest, EnumerationShortCircuits) {
  GeneratedInstance rn = MakeRnInstance(20);  // 2^20 repairs
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  int visited = 0;
  bool complete = true;
  Status walked = ForEachPreferredRepair(
      problem->graph(), Priority(), RepairFamily::kAll, {},
      [&](int /*worker*/, const DynamicBitset&) {
        complete = ++visited < 100;
        return complete;
      });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  EXPECT_FALSE(complete);
  EXPECT_EQ(visited, 100);
}

TEST(RepairProblemTest, RandomInstancesAllRepairsValid) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 14, 3, 3, 2);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    auto repairs = AllRepairs(*problem);
    ASSERT_TRUE(repairs.ok());
    EXPECT_GE(repairs->size(), 1u);
    for (const DynamicBitset& r : *repairs) {
      EXPECT_TRUE(problem->IsRepair(r));
      // A repair materializes to a consistent database (Definition 1).
      Database repaired = problem->MaterializeRepair(r);
      EXPECT_TRUE(*IsConsistent(repaired, inst.fds));
    }
  }
}

}  // namespace
}  // namespace prefrep
