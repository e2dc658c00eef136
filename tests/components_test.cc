// Tests for the component-decomposed enumeration engine: the decomposition
// itself, the lazy cross-product composition, and the load-bearing
// structural property behind src/core/families.cc — per-component
// enumeration composed via cross-product yields exactly the whole-graph
// repair set, for all five families, on randomized multi-component graphs.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "base/random.h"
#include "core/families.h"
#include "core/optimality.h"
#include "graph/components.h"
#include "graph/mis.h"
#include "priority/priority.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

using SetOfSets = std::set<std::vector<int>>;

// A random graph of several small clusters whose global vertex ids are
// interleaved by a random permutation, so components are not contiguous
// id ranges. Clusters may themselves fall apart into several connected
// components — the decomposition under test must not care.
ConflictGraph RandomClusteredGraph(Rng& rng, int* out_vertex_count) {
  int clusters = static_cast<int>(rng.UniformRange(2, 4));
  std::vector<std::pair<int, int>> edges;
  std::vector<int> cluster_of;
  for (int c = 0; c < clusters; ++c) {
    int size = static_cast<int>(rng.UniformRange(1, 5));
    int base = static_cast<int>(cluster_of.size());
    for (int i = 0; i < size; ++i) cluster_of.push_back(c);
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        if (rng.Bernoulli(0.5)) edges.emplace_back(base + i, base + j);
      }
    }
  }
  int n = static_cast<int>(cluster_of.size());
  std::vector<int> relabel = rng.Permutation(n);
  for (auto& [u, v] : edges) {
    u = relabel[u];
    v = relabel[v];
  }
  *out_vertex_count = n;
  return ConflictGraph(n, edges);
}

// Reference implementation by exhaustive subset search: all repairs, then
// the family filter via the (enumeration-free) per-repair checkers.
std::vector<DynamicBitset> BruteForceRepairs(const ConflictGraph& g) {
  int n = g.vertex_count();
  CHECK(n <= 20);
  std::vector<DynamicBitset> repairs;
  for (uint32_t mask = 0; mask < (uint32_t{1} << n); ++mask) {
    DynamicBitset s(n);
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) s.Set(i);
    }
    if (g.IsMaximalIndependent(s)) repairs.push_back(std::move(s));
  }
  return repairs;
}

SetOfSets BruteForceFamily(const ConflictGraph& g, const Priority& p,
                           RepairFamily family) {
  std::vector<DynamicBitset> repairs = BruteForceRepairs(g);
  SetOfSets out;
  for (const DynamicBitset& r : repairs) {
    bool member = false;
    switch (family) {
      case RepairFamily::kAll:
        member = true;
        break;
      case RepairFamily::kLocal:
        member = *IsPreferredRepair(g, p, RepairFamily::kLocal, r);
        break;
      case RepairFamily::kSemiGlobal:
        member = *IsPreferredRepair(g, p, RepairFamily::kSemiGlobal, r);
        break;
      case RepairFamily::kGlobal:
        member = IsGloballyOptimalAmong(p, r, repairs);
        break;
      case RepairFamily::kCommon:
        member = *IsPreferredRepair(g, p, RepairFamily::kCommon, r);
        break;
    }
    if (member) out.insert(r.ToVector());
  }
  return out;
}

SetOfSets EnumeratedFamily(const ConflictGraph& g, const Priority& p,
                           RepairFamily family) {
  SetOfSets out;
  Status walked = ForEachPreferredRepair(
      g, p, family, {}, [&out](int /*worker*/, const DynamicBitset& r) {
        EXPECT_TRUE(out.insert(r.ToVector()).second)
            << "duplicate repair " << r.ToString();
        return true;
      });
  EXPECT_TRUE(walked.ok()) << walked.ToString();
  return out;
}

// Composes the family by hand: enumerate each component's family on its
// compact local graph under the projected priority, then cross-product.
SetOfSets ComposedFamily(const ConflictGraph& g, const Priority& p,
                         RepairFamily family) {
  ComponentDecomposition decomposition(g);
  std::vector<Priority> local = ProjectPriorities(decomposition, p);
  std::vector<std::vector<DynamicBitset>> choices;
  for (size_t c = 0; c < decomposition.components().size(); ++c) {
    auto members = PreferredRepairs(decomposition.components()[c].graph,
                                    local[c], family);
    CHECK(members.ok());
    choices.push_back(*std::move(members));
  }
  SetOfSets out;
  ComponentProductEnumerator product(decomposition, &choices);
  product.EnumerateSlices({}, [&out](const DynamicBitset& r) {
    EXPECT_TRUE(out.insert(r.ToVector()).second);
    return true;
  });
  return out;
}

// ----------------------------------------------------- decomposition --

TEST(ComponentDecompositionTest, SplitsAndRemaps) {
  // {0,3} path-of-2 via 3-5, isolated 1, triangle 2-4-6... build explicit:
  // edges: 3-5, 2-4, 4-6, 2-6 → components {3,5}, {2,4,6}; isolated {0,1}.
  ConflictGraph g(7, {{3, 5}, {2, 4}, {4, 6}, {2, 6}});
  ComponentDecomposition d(g);
  ASSERT_EQ(d.components().size(), 2u);
  EXPECT_EQ(d.isolated().ToVector(), (std::vector<int>{0, 1}));
  EXPECT_EQ(d.components()[0].vertices, (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(d.components()[1].vertices, (std::vector<int>{3, 5}));
  EXPECT_EQ(d.components()[0].graph.vertex_count(), 3);
  EXPECT_EQ(d.components()[0].graph.edge_count(), 3);
  EXPECT_EQ(d.components()[1].graph.edge_count(), 1);
  EXPECT_EQ(d.ComponentOf(4), 0);
  EXPECT_EQ(d.ComponentOf(5), 1);
  EXPECT_EQ(d.ComponentOf(0), -1);
  EXPECT_EQ(d.LocalIndex(6), 2);
  EXPECT_EQ(d.LocalIndex(3), 0);
}

TEST(ComponentDecompositionTest, GraphBuildsItsDecompositionOnce) {
  ConflictGraph g(7, {{3, 5}, {2, 4}, {4, 6}, {2, 6}});
  const ComponentDecomposition& d = g.decomposition();
  EXPECT_EQ(&g.decomposition(), &d);
  const ConflictGraph copy = g;
  EXPECT_EQ(&copy.decomposition(), &d);
  // The cached one is the from-scratch one.
  ComponentDecomposition scratch(g);
  ASSERT_EQ(d.components().size(), scratch.components().size());
  for (size_t c = 0; c < d.components().size(); ++c) {
    EXPECT_EQ(d.components()[c].vertices, scratch.components()[c].vertices);
    EXPECT_EQ(d.components()[c].graph.edges(),
              scratch.components()[c].graph.edges());
  }
  EXPECT_TRUE(d.isolated() == scratch.isolated());
  EXPECT_EQ(d.rebuilt_component_count(), 2);
  EXPECT_EQ(d.carried_component_count(), 0);
}

TEST(ComponentDecompositionTest, SpanningComponentSharesTheGraphsRows) {
  // A component spanning its graph is the graph itself: its rows are the
  // graph's, and its own decomposition is a different object (the graph
  // does not hold itself through its cache; LSan would report a cycle).
  ConflictGraph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const ComponentDecomposition& d = g.decomposition();
  ASSERT_EQ(d.components().size(), 1u);
  EXPECT_TRUE(d.isolated().None());
  const ConflictGraph& local = d.components()[0].graph;
  EXPECT_EQ(local.edges(), g.edges());
  for (int v = 0; v < g.vertex_count(); ++v) {
    EXPECT_TRUE(local.SharesAdjacencyWith(g, v)) << "vertex " << v;
  }
  EXPECT_NE(&local.decomposition(), &d);
  EXPECT_EQ(local.decomposition().components()[0].vertices,
            d.components()[0].vertices);
}

TEST(ComponentDecompositionTest, ScatterGatherRoundTrip) {
  ConflictGraph g(6, {{1, 4}, {4, 5}});
  ComponentDecomposition d(g);
  ASSERT_EQ(d.components().size(), 1u);
  DynamicBitset local = DynamicBitset::FromIndices(3, {0, 2});  // {1, 5}
  DynamicBitset global(6);
  global.Set(0);  // outside the component: must survive Scatter
  d.Scatter(0, local, global);
  EXPECT_EQ(global.ToVector(), (std::vector<int>{0, 1, 5}));
  DynamicBitset back(3);
  d.Gather(0, global, back);
  EXPECT_EQ(back, local);
}

TEST(ComponentDecompositionTest, InducedSubgraphKeepsInternalEdgesOnly) {
  ConflictGraph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ConflictGraph sub = InducedSubgraph(g, {1, 2, 4});
  EXPECT_EQ(sub.vertex_count(), 3);
  EXPECT_EQ(sub.edge_count(), 1);  // only 1-2 survives
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_FALSE(sub.HasEdge(1, 2));
}

TEST(ComponentDecompositionTest, PriorityProjectionRestrictsArcs) {
  ConflictGraph g(6, {{0, 2}, {2, 4}, {1, 5}});
  auto p = Priority::Create(g, {{0, 2}, {4, 2}, {5, 1}});
  ASSERT_TRUE(p.ok());
  ComponentDecomposition d(g);
  ASSERT_EQ(d.components().size(), 2u);  // {0,2,4} and {1,5}
  std::vector<Priority> local = ProjectPriorities(d, *p);
  ASSERT_EQ(local.size(), 2u);
  EXPECT_EQ(local[0].arcs(),
            (std::vector<std::pair<int, int>>{{0, 1}, {2, 1}}));
  EXPECT_EQ(local[1].arcs(), (std::vector<std::pair<int, int>>{{1, 0}}));
}

// ------------------------------------------------- product enumerator --

TEST(ComponentProductEnumeratorTest, EnumeratesFullProduct) {
  // Two disjoint edges + an isolated vertex: 2 x 2 combinations.
  ConflictGraph g(5, {{0, 3}, {1, 4}});
  ComponentDecomposition d(g);
  std::vector<std::vector<DynamicBitset>> choices;
  for (const GraphComponent& c : d.components()) {
    choices.push_back({DynamicBitset::FromIndices(2, {0}),
                       DynamicBitset::FromIndices(2, {1})});
    EXPECT_EQ(c.graph.vertex_count(), 2);
  }
  ComponentProductEnumerator product(d, &choices);
  EXPECT_EQ(product.Count().ToString(), "4");
  SetOfSets seen;
  EXPECT_TRUE(product.EnumerateSlices({}, [&seen](const DynamicBitset& r) {
    EXPECT_TRUE(r.Test(2));  // isolated vertex in every output
    seen.insert(r.ToVector());
    return true;
  }));
  EXPECT_EQ(seen, (SetOfSets{{0, 1, 2}, {0, 2, 4}, {1, 2, 3}, {2, 3, 4}}));
}

TEST(ComponentProductEnumeratorTest, EarlyStopShortCircuits) {
  // 3 components x 4 singleton-ish lists: product 4^3 = 64; stop at 5.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 3; ++i) {
    // A 4-cycle has 4 repairs... use a path P4: repairs {0,2},{0,3},{1,3}.
    int b = 4 * i;
    edges.insert(edges.end(), {{b, b + 1}, {b + 1, b + 2}, {b + 2, b + 3}});
  }
  ConflictGraph g(12, edges);
  ComponentDecomposition d(g);
  ASSERT_EQ(d.components().size(), 3u);
  std::vector<std::vector<DynamicBitset>> choices;
  for (const GraphComponent& c : d.components()) {
    auto repairs = PreferredRepairs(c.graph, Priority(), RepairFamily::kAll);
    ASSERT_TRUE(repairs.ok());
    ASSERT_EQ(repairs->size(), 3u);
    choices.push_back(*std::move(repairs));
  }
  ComponentProductEnumerator product(d, &choices);
  EXPECT_EQ(product.Count().ToString(), "27");
  int seen = 0;
  EXPECT_FALSE(product.EnumerateSlices({}, [&seen](const DynamicBitset&) {
    return ++seen < 5;
  }));
  EXPECT_EQ(seen, 5);
}

TEST(ComponentProductEnumeratorTest, EmptyChoiceListMakesEmptyProduct) {
  ConflictGraph g(4, {{0, 1}, {2, 3}});
  ComponentDecomposition d(g);
  std::vector<std::vector<DynamicBitset>> choices(2);
  choices[0].push_back(DynamicBitset::FromIndices(2, {0}));
  // choices[1] left empty.
  ComponentProductEnumerator product(d, &choices);
  EXPECT_EQ(product.Count().ToString(), "0");
  int seen = 0;
  EXPECT_TRUE(product.EnumerateSlices({}, [&seen](const DynamicBitset&) {
    ++seen;
    return true;
  }));
  EXPECT_EQ(seen, 0);
}

TEST(ComponentProductEnumeratorTest, DisjointBoxesPartitionTheProduct) {
  // Same 3 x P4 setup as EarlyStopShortCircuits: 3 components with 3
  // repairs each, product 27. Partition the product the way the CQA shard
  // planner does — fix one digit entirely, split another into ranges,
  // leave the third unconstrained — and check the boxes' outputs union to
  // exactly the full enumeration with no repair visited twice.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 3; ++i) {
    int b = 4 * i;
    edges.insert(edges.end(), {{b, b + 1}, {b + 1, b + 2}, {b + 2, b + 3}});
  }
  ConflictGraph g(12, edges);
  ComponentDecomposition d(g);
  std::vector<std::vector<DynamicBitset>> choices;
  for (const GraphComponent& c : d.components()) {
    auto repairs = PreferredRepairs(c.graph, Priority(), RepairFamily::kAll);
    ASSERT_TRUE(repairs.ok());
    choices.push_back(*std::move(repairs));
  }
  ComponentProductEnumerator full(d, &choices);
  SetOfSets expected;
  EXPECT_TRUE(full.EnumerateSlices({}, [&expected](const DynamicBitset& r) {
    expected.insert(r.ToVector());
    return true;
  }));
  EXPECT_EQ(expected.size(), 27u);

  using DigitRange = ComponentProductEnumerator::DigitRange;
  SetOfSets seen;
  for (size_t i = 0; i < 3; ++i) {            // digit 0 fixed per index
    for (auto [lo, hi] : {std::pair<size_t, size_t>{0, 2}, {2, 3}}) {
      ComponentProductEnumerator box(d, &choices);
      EXPECT_TRUE(box.EnumerateSlices(
          {DigitRange{0, i, i + 1}, DigitRange{1, lo, hi}},
          [&seen](const DynamicBitset& r) {
            EXPECT_TRUE(seen.insert(r.ToVector()).second)
                << "repair visited by two boxes: " << r.ToString();
            return true;
          }));
    }
  }
  EXPECT_EQ(seen, expected);

  // An empty range makes the box a vacuously complete empty slice.
  ComponentProductEnumerator empty_box(d, &choices);
  EXPECT_TRUE(empty_box.EnumerateSlices({DigitRange{2, 1, 1}},
                                        [](const DynamicBitset&) {
                                          ADD_FAILURE() << "empty box emitted";
                                          return true;
                                        }));
}

// --------------------------------------------- composition property --

TEST(ComponentsPropertyTest, ComposedEnumerationMatchesWholeGraph) {
  Rng rng(20260729);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 0;
    ConflictGraph g = RandomClusteredGraph(rng, &n);
    Priority priority = trial % 2 == 0
                            ? RandomRankingPriority(rng, g, 0.6)
                            : RandomDagPriority(rng, g, 0.7);
    for (RepairFamily family : kAllFamilies) {
      SetOfSets expected = BruteForceFamily(g, priority, family);
      SetOfSets enumerated = EnumeratedFamily(g, priority, family);
      SetOfSets composed = ComposedFamily(g, priority, family);
      EXPECT_EQ(enumerated, expected)
          << RepairFamilyName(family) << " trial " << trial
          << " enumerated != brute force";
      EXPECT_EQ(composed, expected)
          << RepairFamilyName(family) << " trial " << trial
          << " composed cross-product != brute force";
    }
  }
}

TEST(ComponentsPropertyTest, SingleComponentGraphsStillMatch) {
  // Cycle instances are connected: exercises the streaming path.
  for (int k : {3, 4}) {
    GeneratedInstance inst = MakeCycleInstance(k);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    const ConflictGraph& g = problem->graph();
    ASSERT_EQ(ComponentDecomposition(g).components().size(), 1u);
    Rng rng(7 + k);
    Priority priority = RandomRankingPriority(rng, g, 0.5);
    for (RepairFamily family : kAllFamilies) {
      EXPECT_EQ(EnumeratedFamily(g, priority, family),
                BruteForceFamily(g, priority, family))
          << RepairFamilyName(family) << " k=" << k;
    }
  }
}

// ----------------------------------------------- limit propagation --

TEST(ComponentsTest, EarlyStopPropagatesThroughFamilies) {
  // 8 disjoint edges: 256 repairs in every family under empty priority.
  GeneratedInstance rn = MakeRnInstance(8);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  for (RepairFamily family : kAllFamilies) {
    int seen = 0;
    bool complete = true;
    Status walked = ForEachPreferredRepair(
        problem->graph(), empty, family, {},
        [&](int /*worker*/, const DynamicBitset&) {
          complete = ++seen < 7;
          return complete;
        });
    ASSERT_TRUE(walked.ok()) << walked.ToString();
    EXPECT_FALSE(complete) << RepairFamilyName(family);
    EXPECT_EQ(seen, 7) << RepairFamilyName(family);
  }
}

TEST(ComponentsTest, LimitPropagatesAsResourceExhausted) {
  GeneratedInstance rn = MakeRnInstance(10);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  EvalOptions capped;
  capped.limits.max_repair_list = 50;
  EvalOptions roomy;
  roomy.limits.max_repair_list = 2000;
  for (RepairFamily family : kAllFamilies) {
    auto limited = PreferredRepairs(problem->graph(), empty, family, capped);
    ASSERT_FALSE(limited.ok()) << RepairFamilyName(family);
    EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
    auto full = PreferredRepairs(problem->graph(), empty, family, roomy);
    ASSERT_TRUE(full.ok()) << RepairFamilyName(family);
    EXPECT_EQ(full->size(), 1024u) << RepairFamilyName(family);
  }
}

}  // namespace
}  // namespace prefrep
