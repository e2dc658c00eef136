// Executable versions of the paper's §3 / §3.4 cautionary constructions:
//
//   Example 6  — a family satisfying P1-P4 that practically ignores the
//                priority (all repairs unless the priority is total);
//   Example 10 — T-Rep: clean under one arbitrarily chosen total
//                extension; globally optimal and categorical, but it
//                violates monotonicity (P2), "groundless elimination".
//
// These justify the paper's §3.4 conclusion — families should be optimal
// AND monotone — and double as regression tests for the machinery they
// are built from.

#include <gtest/gtest.h>

#include <set>

#include "core/algorithm1.h"
#include "core/extensions.h"
#include "core/families.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

// Example 6's family: the Algorithm 1 singleton for total priorities,
// every repair otherwise.
std::set<DynamicBitset> Example6Family(const ConflictGraph& graph,
                                       const Priority& priority) {
  std::set<DynamicBitset> out;
  if (priority.IsTotalFor(graph)) {
    out.insert(CleanDatabaseTotal(graph, priority));
    return out;
  }
  auto all = PreferredRepairs(graph, Priority(), RepairFamily::kAll);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  if (all.ok()) out.insert(all->begin(), all->end());
  return out;
}

// Example 10's T-Rep: deterministically complete the priority to a total
// extension (first-found in enumeration order), then clean.
std::set<DynamicBitset> TRepFamily(const ConflictGraph& graph,
                                   const Priority& priority) {
  DynamicBitset result(graph.vertex_count());
  EnumerateTotalExtensions(graph, priority, [&](const Priority& total) {
    result = CleanDatabaseTotal(graph, total);
    return false;  // fix the first total extension
  });
  return {result};
}

TEST(DegenerateFamiliesTest, Example6SatisfiesTheAxiomsButIgnoresInput) {
  // Example 7's triangle with the partial priority ta ≻ tb, ta ≻ tc.
  GeneratedInstance inst = MakeKeyGroupsInstance(1, 3);
  RepairProblem problem = MustProblem(inst);
  const ConflictGraph& g = problem.graph();
  auto partial = Priority::Create(g, {{0, 1}, {0, 2}});
  ASSERT_TRUE(partial.ok());

  std::set<DynamicBitset> family = Example6Family(g, *partial);
  // P1 and P3-like behavior hold trivially...
  EXPECT_EQ(family.size(), 3u);  // all repairs
  // ...P4 holds (total priority -> Algorithm 1 singleton)...
  auto total = partial->Extend(g, {{1, 2}});
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(Example6Family(g, *total).size(), 1u);
  // ...but the partial priority, which L-Rep already uses decisively
  // (only {ta} is locally optimal), is completely wasted:
  auto l_rep = PreferredRepairs(g, *partial, RepairFamily::kLocal);
  ASSERT_TRUE(l_rep.ok());
  EXPECT_EQ(l_rep->size(), 1u);
  EXPECT_GT(family.size(), l_rep->size());
}

TEST(DegenerateFamiliesTest, TRepIsGloballyOptimalAndCategorical) {
  GeneratedInstance inst = MakeChainInstance(5);
  RepairProblem problem = MustProblem(inst);
  const ConflictGraph& g = problem.graph();
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Priority priority = RandomDagPriority(rng, g, 0.4);
    std::set<DynamicBitset> family = TRepFamily(g, priority);
    ASSERT_EQ(family.size(), 1u);  // P1 + P4 by construction
    // Members are globally optimal (they are Algorithm 1 outputs of a
    // total extension, hence common repairs of that extension).
    EXPECT_TRUE(*IsPreferredRepair(g, priority, RepairFamily::kGlobal,
                                   *family.begin()));
    EXPECT_TRUE(*IsPreferredRepair(g, priority, RepairFamily::kCommon,
                                   *family.begin()));
  }
}

TEST(DegenerateFamiliesTest, TRepViolatesMonotonicity) {
  // §3.4: optimality alone does not prevent "groundless elimination";
  // monotonicity does. T-Rep picks one total extension arbitrarily, so an
  // *extension* of the user's priority can produce a repair outside the
  // original family — violating P2.
  GeneratedInstance inst = MakeRnInstance(1);  // single conflict {0,1}
  RepairProblem problem = MustProblem(inst);
  const ConflictGraph& g = problem.graph();
  Priority empty = Priority::Empty(g);

  std::set<DynamicBitset> base = TRepFamily(g, empty);
  ASSERT_EQ(base.size(), 1u);
  // The enumerator orients 0 ≻ 1 first, so T-Rep(∅) = {{0}}.
  EXPECT_TRUE(base.begin()->Test(0));

  // The user now *extends* the (empty) priority with 1 ≻ 0.
  auto extended = Priority::Create(g, {{1, 0}});
  ASSERT_TRUE(extended.ok());
  ASSERT_TRUE(empty.IsExtendedBy(*extended));
  std::set<DynamicBitset> narrowed = TRepFamily(g, *extended);
  ASSERT_EQ(narrowed.size(), 1u);
  EXPECT_TRUE(narrowed.begin()->Test(1));

  // P2 demands T-Rep(extended) ⊆ T-Rep(empty) — violated.
  EXPECT_FALSE(base.contains(*narrowed.begin()));

  // The principled families are monotone here: C-Rep(∅) contains both
  // repairs, and C-Rep(extended) ⊆ C-Rep(∅).
  auto c_base = PreferredRepairs(g, empty, RepairFamily::kCommon);
  auto c_narrow = PreferredRepairs(g, *extended, RepairFamily::kCommon);
  ASSERT_TRUE(c_base.ok() && c_narrow.ok());
  EXPECT_EQ(c_base->size(), 2u);
  ASSERT_EQ(c_narrow->size(), 1u);
  std::set<DynamicBitset> c_base_set(c_base->begin(), c_base->end());
  EXPECT_TRUE(c_base_set.contains((*c_narrow)[0]));
}

}  // namespace
}  // namespace prefrep
