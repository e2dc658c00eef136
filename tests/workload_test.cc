// Tests for src/workload: structural invariants and determinism of every
// generator (the benchmarks' workloads must be exactly what DESIGN.md
// claims they are).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "constraints/fd_theory.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

TEST(WorkloadTest, RnStructure) {
  GeneratedInstance rn = MakeRnInstance(5);
  EXPECT_EQ(rn.db->tuple_count(), 10);
  RepairProblem problem = MustProblem(rn);
  // n disjoint conflict edges.
  EXPECT_EQ(problem.graph().edge_count(), 5);
  auto components = problem.graph().ConnectedComponents();
  EXPECT_EQ(components.size(), 5u);
  for (const auto& c : components) EXPECT_EQ(c.size(), 2u);
}

TEST(WorkloadTest, KeyGroupsAreCliques) {
  GeneratedInstance inst = MakeKeyGroupsInstance(3, 4);
  RepairProblem problem = MustProblem(inst);
  // 3 cliques of size 4: 3 * C(4,2) = 18 edges.
  EXPECT_EQ(problem.graph().edge_count(), 18);
  // The FD is a key dependency (Prop. 3 territory).
  EXPECT_TRUE(IsSingleKeyDependency(inst.db->relations()[0].schema(),
                                    inst.fds));
}

TEST(WorkloadTest, DuplicatesStructure) {
  GeneratedInstance inst = MakeDuplicatesInstance(2, 3, 2);
  RepairProblem problem = MustProblem(inst);
  // Per group: 3 duplicates (pairwise non-adjacent) + 2 rivals adjacent to
  // everything else in the group: edges = duplicates*rivals + C(rivals,2)
  // = 3*2 + 1 = 7 per group.
  EXPECT_EQ(problem.graph().edge_count(), 14);
  // Not a key dependency (that is the point of Example 8).
  EXPECT_FALSE(IsSingleKeyDependency(inst.db->relations()[0].schema(),
                                     inst.fds));
}

TEST(WorkloadTest, ChainIsAPathWithAlternatingFds) {
  GeneratedInstance inst = MakeChainInstance(8);
  RepairProblem problem = MustProblem(inst);
  EXPECT_EQ(problem.graph().edge_count(), 7);
  for (int i = 0; i + 1 < 8; ++i) {
    EXPECT_TRUE(problem.graph().HasEdge(i, i + 1));
  }
  // Ends have degree 1, middles 2.
  EXPECT_EQ(problem.graph().Degree(0), 1);
  EXPECT_EQ(problem.graph().Degree(4), 2);
  // Edges alternate between the two FDs: check via per-FD conflicts.
  std::vector<FunctionalDependency> fd1 = {inst.fds[0]};
  auto fd1_edges = FindConflicts(*inst.db, fd1);
  ASSERT_TRUE(fd1_edges.ok());
  for (auto [u, v] : *fd1_edges) {
    EXPECT_EQ(u % 2, 0);  // FD1 edges start at even positions
    EXPECT_EQ(v, u + 1);
  }
}

TEST(WorkloadTest, CycleIsChordless) {
  for (int k : {3, 5}) {
    GeneratedInstance inst = MakeCycleInstance(k);
    RepairProblem problem = MustProblem(inst);
    EXPECT_EQ(problem.graph().vertex_count(), 2 * k);
    EXPECT_EQ(problem.graph().edge_count(), 2 * k);
    for (int v = 0; v < 2 * k; ++v) {
      EXPECT_EQ(problem.graph().Degree(v), 2) << "k=" << k << " v=" << v;
    }
    // Connected single cycle.
    EXPECT_EQ(problem.graph().ConnectedComponents().size(), 1u);
  }
}

TEST(WorkloadTest, RandomInstanceDeterministicForSeed) {
  Rng rng1(1234), rng2(1234);
  GeneratedInstance a = MakeRandomInstance(rng1, 20, 3, 4, 2);
  GeneratedInstance b = MakeRandomInstance(rng2, 20, 3, 4, 2);
  ASSERT_EQ(a.db->tuple_count(), b.db->tuple_count());
  for (int i = 0; i < a.db->tuple_count(); ++i) {
    EXPECT_EQ(a.db->TupleOf(i), b.db->TupleOf(i));
  }
  ASSERT_EQ(a.fds.size(), b.fds.size());
  for (size_t i = 0; i < a.fds.size(); ++i) {
    EXPECT_TRUE(a.fds[i] == b.fds[i]);
  }
}

TEST(WorkloadTest, RandomPrioritiesRespectDensityExtremes) {
  GeneratedInstance inst = MakeCycleInstance(4);
  RepairProblem problem = MustProblem(inst);
  Rng rng(5);
  Priority none = RandomRankingPriority(rng, problem.graph(), 0.0);
  EXPECT_EQ(none.arc_count(), 0);
  Priority total = RandomRankingPriority(rng, problem.graph(), 1.0);
  EXPECT_TRUE(total.IsTotalFor(problem.graph()));
  Priority dag_total = RandomDagPriority(rng, problem.graph(), 1.0);
  EXPECT_TRUE(dag_total.IsTotalFor(problem.graph()));
}

TEST(WorkloadTest, IntegrationWorkloadSourcesAreConsistent) {
  Rng rng(99);
  GeneratedInstance inst = MakeIntegrationWorkload(rng, 4, 20, 0.6, 3);
  // Each source in isolation satisfies the key FD: one value per key.
  for (int s = 0; s < 4; ++s) {
    Database source_db;
    ASSERT_TRUE(
        source_db.AddRelation(inst.db->relations()[0].schema()).ok());
    for (int id = 0; id < inst.db->tuple_count(); ++id) {
      if (inst.db->MetaOf(id).source_id != s) continue;
      auto inserted = source_db.Insert("R", inst.db->TupleOf(id));
      ASSERT_TRUE(inserted.ok());
    }
    EXPECT_TRUE(*IsConsistent(source_db, inst.fds)) << "source " << s;
  }
}

TEST(WorkloadTest, IntegrationWorkloadConflictsOnlyAcrossSources) {
  Rng rng(7);
  GeneratedInstance inst = MakeIntegrationWorkload(rng, 3, 30, 0.7, 2);
  RepairProblem problem = MustProblem(inst);
  for (auto [u, v] : problem.graph().edges()) {
    EXPECT_NE(inst.db->MetaOf(u).source_id, inst.db->MetaOf(v).source_id);
  }
}

TEST(WorkloadTest, ComponentPathsGraphHasRequestedComponents) {
  Rng rng(2026);
  ConflictGraph g = MakeComponentPathsGraph(rng, {1, 3, 5, 1, 4});
  EXPECT_EQ(g.vertex_count(), 14);
  // Edges: (3-1) + (5-1) + (4-1) = 9; paths are acyclic so component
  // sizes are recoverable from the component list.
  EXPECT_EQ(g.edge_count(), 9);
  std::vector<size_t> sizes;
  for (const auto& component : g.ConnectedComponents()) {
    sizes.push_back(component.size());
  }
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 1, 3, 4, 5}));
  // Every vertex of a path has degree <= 2.
  for (int v = 0; v < g.vertex_count(); ++v) {
    EXPECT_LE(g.Degree(v), 2);
  }
}

TEST(WorkloadTest, ComponentPathsGraphDeterministicForSeed) {
  Rng rng1(77), rng2(77);
  ConflictGraph a = MakeComponentPathsGraph(rng1, {4, 6, 2});
  ConflictGraph b = MakeComponentPathsGraph(rng2, {4, 6, 2});
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(WorkloadTest, ComponentsInstanceGroupsAreComponents) {
  Rng rng(31337);
  std::vector<int> sizes = {4, 1, 6, 3, 1, 5};
  GeneratedInstance inst = MakeComponentsInstance(rng, sizes);
  RepairProblem problem = MustProblem(inst);
  int total = 0;
  for (int s : sizes) total += s;
  EXPECT_EQ(problem.graph().vertex_count(), total);
  // Conflicts only join tuples of the same key (= same group).
  for (auto [u, v] : problem.graph().edges()) {
    EXPECT_EQ(inst.db->TupleOf(u).value(0), inst.db->TupleOf(v).value(0));
  }
  // Groups of size >= 2 are connected (>= 2 V-classes, complete
  // multipartite); size-1 groups are isolated vertices.
  std::vector<size_t> component_sizes;
  for (const auto& component : problem.graph().ConnectedComponents()) {
    component_sizes.push_back(component.size());
  }
  std::sort(component_sizes.begin(), component_sizes.end());
  EXPECT_EQ(component_sizes, (std::vector<size_t>{1, 1, 3, 4, 5, 6}));
}

TEST(WorkloadTest, ComponentsInstanceConvenienceRespectsBounds) {
  Rng rng(8);
  GeneratedInstance inst = MakeComponentsInstance(rng, 5, 2, 4);
  RepairProblem problem = MustProblem(inst);
  auto components = problem.graph().ConnectedComponents();
  EXPECT_EQ(components.size(), 5u);  // min_size 2 forbids isolated vertices
  for (const auto& component : components) {
    EXPECT_GE(component.size(), 2u);
    EXPECT_LE(component.size(), 4u);
  }
}

TEST(WorkloadTest, MgrScenarioMatchesThePaperExactly) {
  MgrScenario s = MakeMgrScenario();
  EXPECT_EQ(s.db->tuple_count(), 4);
  EXPECT_EQ(s.db->TupleOf(s.mary_rd),
            Tuple::Of(Value::Name("Mary"), Value::Name("R&D"),
                      Value::Number(40000), Value::Number(3)));
  EXPECT_EQ(s.db->MetaOf(s.mary_rd).source_id, 1);
  EXPECT_EQ(s.db->MetaOf(s.mary_it).source_id, 3);
  EXPECT_EQ(s.db->MetaOf(s.john_pr).source_id, 3);
  EXPECT_EQ(s.fds.size(), 2u);
}

TEST(WorkloadTest, OpenGroundCqaOnIntegrationWorkload) {
  // GroundConsistentOpenAnswers (polynomial) agrees with the naive
  // intersection engine on monotone open queries.
  Rng rng(42);
  GeneratedInstance inst = MakeIntegrationWorkload(rng, 3, 8, 0.8, 2);
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  auto query = ParseQuery("R(k, v)");
  ASSERT_TRUE(query.ok());
  auto fast = GroundConsistentOpenAnswers(problem, **query);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  auto naive = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                        **query);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(fast->variables, naive->variables);
  EXPECT_EQ(fast->rows, naive->rows);
  // Sanity: certain rows are exactly the conflict-free facts here.
  for (const Tuple& row : fast->rows) {
    // Row order is (k, v) — variables sorted alphabetically.
    auto id = inst.db->FindTuple("R", row);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(problem.graph().Degree(*id), 0);
  }
}

TEST(WorkloadTest, OpenGroundCqaRejectsNegation) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  auto query = ParseQuery("not R(x, 0)");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(GroundConsistentOpenAnswers(problem, **query).ok());
  auto quantified = ParseQuery("exists y . R(x, y)");
  ASSERT_TRUE(quantified.ok());
  EXPECT_FALSE(GroundConsistentOpenAnswers(problem, **quantified).ok());
}

}  // namespace
}  // namespace prefrep
