// Tests for src/repair/metrics.h and src/graph/dot.h: the inspection
// utilities.

#include <gtest/gtest.h>

#include "graph/dot.h"
#include "repair/metrics.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

TEST(MetricsTest, RnMetrics) {
  GeneratedInstance rn = MakeRnInstance(4);
  RepairProblem problem = MustProblem(rn);
  RepairSpaceMetrics m = ComputeRepairSpaceMetrics(problem, nullptr);
  EXPECT_EQ(m.tuple_count, 8);
  EXPECT_EQ(m.conflict_count, 4);
  EXPECT_EQ(m.conflicting_tuple_count, 8);
  EXPECT_EQ(m.component_count, 4);
  EXPECT_EQ(m.largest_component, 2);
  EXPECT_EQ(m.max_degree, 1);
  EXPECT_EQ(m.repair_count.ToString(), "16");
  EXPECT_EQ(m.min_repair_size, 4);
  EXPECT_EQ(m.max_repair_size, 4);
  EXPECT_EQ(m.oriented_conflicts, 0);
}

TEST(MetricsTest, MixedInstanceSizes) {
  // Key group of 3 (repairs keep 1) + isolated tuple (always kept).
  GeneratedInstance inst = MakeKeyGroupsInstance(1, 3);
  ASSERT_TRUE(
      inst.db->Insert("R", Tuple::Of(Value::Number(9), Value::Number(9)))
          .ok());
  RepairProblem problem = MustProblem(inst);
  RepairSpaceMetrics m = ComputeRepairSpaceMetrics(problem, nullptr);
  EXPECT_EQ(m.tuple_count, 4);
  EXPECT_EQ(m.conflicting_tuple_count, 3);
  EXPECT_EQ(m.component_count, 2);
  EXPECT_EQ(m.min_repair_size, 2);  // one of the clique + the isolated
  EXPECT_EQ(m.max_repair_size, 2);
  EXPECT_EQ(m.max_degree, 2);
}

TEST(MetricsTest, VariableRepairSizes) {
  // A path of 3: repairs {0,2} (size 2) and {1} (size 1).
  GeneratedInstance chain = MakeChainInstance(3);
  RepairProblem problem = MustProblem(chain);
  RepairSpaceMetrics m = ComputeRepairSpaceMetrics(problem, nullptr);
  EXPECT_EQ(m.min_repair_size, 1);
  EXPECT_EQ(m.max_repair_size, 2);
}

TEST(MetricsTest, RepairCountMatchesCountRepairsAcrossComponents) {
  // The count comes from the same per-component pass as the size range;
  // it must still be the exact product CountRepairs reports.
  Rng rng(5);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 1, 5, 3, 6});
  RepairProblem problem = MustProblem(inst);
  RepairSpaceMetrics m = ComputeRepairSpaceMetrics(problem, nullptr);
  ASSERT_GT(m.component_count, 2);
  EXPECT_EQ(m.repair_count.ToString(), problem.CountRepairs().ToString());
  EXPECT_NE(m.repair_count.ToString(), "1");
}

TEST(MetricsTest, PriorityCoverageCounted) {
  MgrScenario s = MakeMgrScenario();
  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  ASSERT_TRUE(problem.ok());
  auto priority = Priority::Create(
      problem->graph(), {{s.mary_rd, s.mary_it}, {s.john_rd, s.john_pr}});
  ASSERT_TRUE(priority.ok());
  RepairSpaceMetrics m = ComputeRepairSpaceMetrics(*problem, &*priority);
  EXPECT_EQ(m.conflict_count, 3);
  EXPECT_EQ(m.oriented_conflicts, 2);
  std::string text = m.ToString();
  EXPECT_NE(text.find("2 / 3"), std::string::npos);
  EXPECT_NE(text.find("repairs:              3"), std::string::npos);
}

TEST(DotTest, RendersVerticesAndEdges) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  std::string dot = ToDot(problem.graph(), nullptr);
  EXPECT_NE(dot.find("graph conflicts {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"t0\"]"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1;"), std::string::npos);
}

TEST(DotTest, OrientedEdgesGetArrows) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  auto priority = Priority::Create(problem.graph(), {{1, 0}});
  ASSERT_TRUE(priority.ok());
  std::string dot = ToDot(problem.graph(), &*priority);
  EXPECT_NE(dot.find("n1 -- n0 [dir=forward"), std::string::npos);
}

TEST(DotTest, CustomLabelsAndEscaping) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  std::string dot =
      ToDot(problem.graph(), nullptr,
            [](int v) { return "tuple \"" + std::to_string(v) + "\""; });
  EXPECT_NE(dot.find("tuple \\\"0\\\""), std::string::npos);
}

}  // namespace
}  // namespace prefrep
