// Unit tests for src/graph: conflict graphs, maximal-independent-set
// enumeration/counting, digraph utilities and the Theorem 2 side condition.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "base/eval_options.h"
#include "base/random.h"
#include "core/families.h"
#include "graph/components.h"
#include "graph/conflict_graph.h"
#include "graph/digraph.h"
#include "graph/mis.h"

namespace prefrep {
namespace {

ConflictGraph Path(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return ConflictGraph(n, edges);
}

ConflictGraph Cycle(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return ConflictGraph(n, edges);
}

// The repair space is the Rep family of core/families.h.
bool EnumerateMis(const ConflictGraph& g,
                  const std::function<bool(const DynamicBitset&)>& callback) {
  bool complete = true;
  Status walked = ForEachPreferredRepair(
      g, Priority(), RepairFamily::kAll, {},
      [&](int /*worker*/, const DynamicBitset& s) {
        complete = callback(s);
        return complete;
      });
  return complete && walked.ok();
}

std::set<std::vector<int>> MisSets(const ConflictGraph& g) {
  std::set<std::vector<int>> out;
  EnumerateMis(g, [&](const DynamicBitset& s) {
    out.insert(s.ToVector());
    return true;
  });
  return out;
}

// ----------------------------------------------------------- ConflictGraph --

TEST(ConflictGraphTest, BasicAccessors) {
  ConflictGraph g(4, {{0, 1}, {1, 2}, {2, 1}});  // duplicate edge normalized
  EXPECT_EQ(g.vertex_count(), 4);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(3, 3));
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Degree(3), 0);
}

TEST(ConflictGraphTest, NeighborsAndVicinity) {
  ConflictGraph g = Path(4);
  EXPECT_EQ(g.Neighbors(1).ToVector(), (std::vector<int>{0, 2}));
  EXPECT_EQ(g.Vicinity(1).ToVector(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.NeighborsOfSet(DynamicBitset::FromIndices(4, {0, 3}))
                .ToVector(),
            (std::vector<int>{1, 2}));
}

TEST(ConflictGraphTest, IndependenceChecks) {
  ConflictGraph g = Path(4);
  EXPECT_TRUE(g.IsIndependent(DynamicBitset::FromIndices(4, {0, 2})));
  EXPECT_FALSE(g.IsIndependent(DynamicBitset::FromIndices(4, {0, 1})));
  EXPECT_TRUE(g.IsIndependent(DynamicBitset(4)));  // empty set
}

TEST(ConflictGraphTest, MaximalIndependence) {
  ConflictGraph g = Path(4);
  EXPECT_TRUE(g.IsMaximalIndependent(DynamicBitset::FromIndices(4, {0, 2})));
  EXPECT_TRUE(g.IsMaximalIndependent(DynamicBitset::FromIndices(4, {1, 3})));
  EXPECT_TRUE(g.IsMaximalIndependent(DynamicBitset::FromIndices(4, {0, 3})));
  // Independent but not maximal: {0} can be extended by 2 or 3.
  EXPECT_FALSE(g.IsMaximalIndependent(DynamicBitset::FromIndices(4, {0})));
  // Not independent at all.
  EXPECT_FALSE(
      g.IsMaximalIndependent(DynamicBitset::FromIndices(4, {0, 1, 3})));
}

TEST(ConflictGraphTest, IsolatedVertexMustBeInEveryMaximalSet) {
  ConflictGraph g(3, {{0, 1}});
  EXPECT_FALSE(g.IsMaximalIndependent(DynamicBitset::FromIndices(3, {0})));
  EXPECT_TRUE(g.IsMaximalIndependent(DynamicBitset::FromIndices(3, {0, 2})));
}

// Every connected component, isolated vertices included, as its ascending
// member list, ordered by smallest member: read off the graph's one
// decomposition.
std::vector<std::vector<int>> ComponentLists(const ConflictGraph& g) {
  const ComponentDecomposition& d = g.decomposition();
  std::vector<std::vector<int>> lists;
  for (int v = 0; v < g.vertex_count(); ++v) {
    if (d.isolated().Test(v)) {
      lists.push_back({v});
    } else if (d.LocalIndex(v) == 0) {
      lists.push_back(d.components()[d.ComponentOf(v)].vertices);
    }
  }
  return lists;
}

TEST(ConflictGraphTest, DecompositionListsConnectedComponents) {
  ConflictGraph g(6, {{0, 1}, {1, 2}, {4, 5}});
  auto components = ComponentLists(g);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<int>{3}));
  EXPECT_EQ(components[2], (std::vector<int>{4, 5}));
}

TEST(ConflictGraphTest, EmptyGraph) {
  ConflictGraph g(0, {});
  EXPECT_EQ(g.vertex_count(), 0);
  EXPECT_TRUE(g.IsMaximalIndependent(DynamicBitset(0)));
}

// -------------------------------------------------------------- DeriveFrom --

// Asserts the two graphs agree on every accessor the engines use.
// Neighborhoods are compared as sets: a derived graph's shared rows may be
// ragged (sized to the parent universe), which is representation, not
// meaning. Vicinity must be universe-sized in both regardless.
void ExpectSameGraph(const ConflictGraph& got, const ConflictGraph& want) {
  ASSERT_EQ(got.vertex_count(), want.vertex_count());
  EXPECT_EQ(got.edges(), want.edges());
  for (int v = 0; v < want.vertex_count(); ++v) {
    EXPECT_EQ(got.Neighbors(v).ToVector(), want.Neighbors(v).ToVector())
        << "vertex " << v;
    EXPECT_TRUE(got.Vicinity(v) == want.Vicinity(v)) << "vertex " << v;
    for (int w = 0; w < want.vertex_count(); ++w) {
      EXPECT_EQ(got.HasEdge(v, w), want.HasEdge(v, w))
          << "edge (" << v << "," << w << ")";
    }
  }
  EXPECT_EQ(ComponentLists(got), ComponentLists(want));
}

TEST(ConflictGraphDeriveTest, CleanIdentityVerticesShareAdjacency) {
  // Parent: path 0-1-2-3 plus edge 3-4. Child drops 3-4 and adds 2-4:
  // vertices 0 and 1 keep their exact neighborhoods.
  ConflictGraph parent(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {2, 3}, {2, 4}};
  DynamicBitset dirty(5);
  dirty.Set(2);
  dirty.Set(3);
  dirty.Set(4);
  ConflictGraph derived =
      ConflictGraph::DeriveFrom(parent, 5, edges, /*identity_limit=*/5, dirty);
  ExpectSameGraph(derived, ConflictGraph(5, edges));
  EXPECT_TRUE(derived.SharesAdjacencyWith(parent, 0));
  EXPECT_TRUE(derived.SharesAdjacencyWith(parent, 1));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 2));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 3));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 4));
}

TEST(ConflictGraphDeriveTest, IdentityLimitBoundsSharing) {
  // Same edge set, but only vertices below the limit may share.
  ConflictGraph parent(4, {{0, 1}, {2, 3}});
  std::vector<std::pair<int, int>> edges = {{0, 1}, {2, 3}};
  ConflictGraph derived = ConflictGraph::DeriveFrom(
      parent, 4, edges, /*identity_limit=*/2, DynamicBitset(4));
  ExpectSameGraph(derived, parent);
  EXPECT_TRUE(derived.SharesAdjacencyWith(parent, 0));
  EXPECT_TRUE(derived.SharesAdjacencyWith(parent, 1));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 2));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 3));
}

TEST(ConflictGraphDeriveTest, ZeroIdentityLimitIsAFreshBuild) {
  // identity_limit = 0 is the non-replace-style escape hatch: any vertex
  // count is allowed and nothing is shared.
  ConflictGraph parent(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}};
  ConflictGraph derived = ConflictGraph::DeriveFrom(
      parent, 3, edges, /*identity_limit=*/0, DynamicBitset(3));
  ExpectSameGraph(derived, ConflictGraph(3, edges));
  for (int v = 0; v < 3; ++v) {
    EXPECT_FALSE(derived.SharesAdjacencyWith(parent, v));
  }
}

TEST(ConflictGraphDeriveTest, LargerUniverseZeroExtendsSharedRows) {
  // Insert-only shape: the child universe grows from 4 to 6. Vertices 0
  // and 1 keep their exact (low) neighborhoods, so their parent-sized rows
  // are shared and read zero-extended.
  ConflictGraph parent(4, {{0, 1}, {2, 3}});
  std::vector<std::pair<int, int>> edges = {{0, 1}, {2, 4}, {3, 5}};
  DynamicBitset dirty(6);
  dirty.Set(2);
  dirty.Set(3);
  ConflictGraph derived =
      ConflictGraph::DeriveFrom(parent, 6, edges, /*identity_limit=*/4, dirty);
  ExpectSameGraph(derived, ConflictGraph(6, edges));
  EXPECT_TRUE(derived.SharesAdjacencyWith(parent, 0));
  EXPECT_TRUE(derived.SharesAdjacencyWith(parent, 1));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 2));
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 3));
  // The shared rows really are ragged (parent-sized), and the normalizing
  // accessors still size their outputs to the child universe.
  EXPECT_EQ(derived.Neighbors(0).size(), 4);
  EXPECT_EQ(derived.Vicinity(0).size(), 6);
  EXPECT_FALSE(derived.HasEdge(0, 5));  // index past the ragged row: non-edge
  EXPECT_TRUE(derived.IsMaximalIndependent(
      DynamicBitset::FromIndices(6, {0, 2, 3})));
}

TEST(ConflictGraphDeriveTest, SmallerUniverseTruncatesSharedRows) {
  // Delete-only tail shape: the child universe shrinks from 6 to 4.
  // Vertices 0-2 had no neighbor at or beyond the cut, so their larger
  // parent-sized rows are shared and read truncated.
  ConflictGraph parent(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}};
  DynamicBitset dirty(4);
  dirty.Set(3);
  ConflictGraph derived =
      ConflictGraph::DeriveFrom(parent, 4, edges, /*identity_limit=*/4, dirty);
  ExpectSameGraph(derived, ConflictGraph(4, edges));
  for (int v = 0; v < 3; ++v) {
    EXPECT_TRUE(derived.SharesAdjacencyWith(parent, v)) << "vertex " << v;
  }
  EXPECT_FALSE(derived.SharesAdjacencyWith(parent, 3));
  EXPECT_EQ(derived.Neighbors(0).size(), 6);  // ragged: parent-sized
  EXPECT_EQ(derived.Vicinity(0).size(), 4);
  EXPECT_TRUE(derived.IsMaximalIndependent(
      DynamicBitset::FromIndices(4, {0, 2, 3})));
}

TEST(ConflictGraphDeriveTest, MatchesFromSortedUniqueEdges) {
  // Randomized: perturb a random parent by rewiring edges above a split
  // point; below the split the neighborhoods into the dirty region change
  // too, so dirty = every endpoint of a changed edge.
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    const int n = 2 + static_cast<int>(rng.UniformInt(40));
    std::vector<std::pair<int, int>> parent_edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.UniformInt(100) < 15) parent_edges.emplace_back(u, v);
      }
    }
    ConflictGraph parent(n, parent_edges);
    // Toggle a few pairs; mark both endpoints of every toggled pair dirty.
    std::vector<std::pair<int, int>> edges = parent.edges();
    DynamicBitset dirty(n);
    const int toggles = 1 + static_cast<int>(rng.UniformInt(5));
    for (int t = 0; t < toggles; ++t) {
      int u = static_cast<int>(rng.UniformInt(n));
      int v = static_cast<int>(rng.UniformInt(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      auto it = std::find(edges.begin(), edges.end(), std::make_pair(u, v));
      if (it == edges.end()) {
        edges.emplace_back(u, v);
      } else {
        edges.erase(it);
      }
      dirty.Set(u);
      dirty.Set(v);
    }
    std::sort(edges.begin(), edges.end());
    ConflictGraph derived =
        ConflictGraph::DeriveFrom(parent, n, edges, /*identity_limit=*/n,
                                  dirty);
    ConflictGraph rebuilt = ConflictGraph::FromSortedUniqueEdges(n, edges);
    ExpectSameGraph(derived, rebuilt);
    for (int v = 0; v < n; ++v) {
      if (!dirty.Test(v)) {
        EXPECT_TRUE(derived.SharesAdjacencyWith(parent, v));
      }
    }
  }
}

// --------------------------------------------------------------------- MIS --

TEST(MisTest, PathFourVertices) {
  // Repairs of a P4 path: {0,2}, {0,3}, {1,3}.
  EXPECT_EQ(MisSets(Path(4)),
            (std::set<std::vector<int>>{{0, 2}, {0, 3}, {1, 3}}));
}

TEST(MisTest, PathFiveVertices) {
  EXPECT_EQ(MisSets(Path(5)),
            (std::set<std::vector<int>>{{0, 2, 4}, {0, 3}, {1, 3}, {1, 4}}));
}

TEST(MisTest, TriangleYieldsSingletons) {
  ConflictGraph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(MisSets(g), (std::set<std::vector<int>>{{0}, {1}, {2}}));
}

TEST(MisTest, SixCycle) {
  EXPECT_EQ(MisSets(Cycle(6)),
            (std::set<std::vector<int>>{
                {0, 2, 4}, {1, 3, 5}, {0, 3}, {1, 4}, {2, 5}}));
}

TEST(MisTest, EdgelessGraphHasOneMis) {
  ConflictGraph g(5, {});
  auto sets = MisSets(g);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(*sets.begin(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MisTest, DisjointEdgesGiveTwoToTheN) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 5; ++i) edges.emplace_back(2 * i, 2 * i + 1);
  ConflictGraph g(10, edges);
  EXPECT_EQ(MisSets(g).size(), 32u);
}

TEST(MisTest, EveryEnumeratedSetIsMaximal) {
  ConflictGraph g = Cycle(7);
  EnumerateMis(g, [&](const DynamicBitset& s) {
    EXPECT_TRUE(g.IsMaximalIndependent(s));
    return true;
  });
}

TEST(MisTest, EarlyStopReturnsFalse) {
  ConflictGraph g = Path(6);
  int seen = 0;
  bool complete =
      EnumerateMis(g, [&seen](const DynamicBitset&) { return ++seen < 2; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 2);
}

TEST(MisTest, RepListRespectsLimit) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 6; ++i) edges.emplace_back(2 * i, 2 * i + 1);
  ConflictGraph g(12, edges);  // 64 MIS
  auto listed = [&g](size_t limit) {
    EvalOptions options;
    options.limits.max_repair_list = limit;
    return PreferredRepairs(g, Priority(), RepairFamily::kAll, options);
  };
  auto limited = listed(10);
  EXPECT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
  auto all = listed(100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 64u);
}

TEST(MisTest, ComponentEnumerationMatchesWholeGraphOnConnected) {
  ConflictGraph g = Cycle(6);
  auto comp = ComponentLists(g);
  ASSERT_EQ(comp.size(), 1u);
  ConflictGraph component = InducedSubgraph(g, comp[0]);
  int count = 0;
  EXPECT_TRUE(MisEngine(component).Enumerate([&count](const DynamicBitset&) {
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 5);
}

TEST(MisTest, CountUsesComponentProduct) {
  // 40 disjoint edges: 2^40 repairs, exceeds uint32 but countable exactly.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 40; ++i) edges.emplace_back(2 * i, 2 * i + 1);
  ConflictGraph g(80, edges);
  EXPECT_EQ(CountMaximalIndependentSets(g).ToString(),
            BigUint::PowerOfTwo(40).ToString());
}

TEST(MisTest, CountMatchesEnumerationOnMixedGraph) {
  // Triangle (3 MIS) + path P4 (3 MIS) + isolated vertex (1) = 9.
  ConflictGraph g(8, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {5, 6}});
  EXPECT_EQ(CountMaximalIndependentSets(g).ToString(), "9");
  EXPECT_EQ(MisSets(g).size(), 9u);
}

// ------------------------------------------------------------------ digraph --

TEST(DigraphTest, TopologicalOrderOnDag) {
  auto order = TopologicalOrder(4, {{0, 1}, {1, 2}, {0, 3}});
  ASSERT_TRUE(order.ok());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[2]);
  EXPECT_LT(pos[0], pos[3]);
}

TEST(DigraphTest, TopologicalOrderRejectsCycle) {
  EXPECT_FALSE(TopologicalOrder(3, {{0, 1}, {1, 2}, {2, 0}}).ok());
}

TEST(DigraphTest, IsAcyclic) {
  EXPECT_TRUE(IsAcyclicDigraph(3, {{0, 1}, {0, 2}, {1, 2}}));
  EXPECT_FALSE(IsAcyclicDigraph(2, {{0, 1}, {1, 0}}));
  EXPECT_TRUE(IsAcyclicDigraph(3, {}));
}

TEST(CyclicExtensionTest, ForestsCanNeverBecomeCyclic) {
  // Acyclic conflict graphs admit no cyclic orientation at all.
  EXPECT_FALSE(CanExtendToCyclicOrientation(Path(5), {}));
  EXPECT_FALSE(CanExtendToCyclicOrientation(Path(5), {{0, 1}, {2, 1}}));
  ConflictGraph forest(6, {{0, 1}, {2, 3}, {4, 5}});
  EXPECT_FALSE(CanExtendToCyclicOrientation(forest, {}));
}

TEST(CyclicExtensionTest, UnorientedCycleIsExtendable) {
  EXPECT_TRUE(CanExtendToCyclicOrientation(Cycle(3), {}));
  EXPECT_TRUE(CanExtendToCyclicOrientation(Cycle(6), {}));
}

TEST(CyclicExtensionTest, PartialOrientationAlongCycleStaysExtendable) {
  // Orient two triangle edges consistently: the third can close the cycle.
  EXPECT_TRUE(CanExtendToCyclicOrientation(Cycle(3), {{0, 1}, {1, 2}}));
}

TEST(CyclicExtensionTest, OpposingOrientationBlocksTriangle) {
  // 0->1 and 2->1 kill both directions around a triangle.
  EXPECT_FALSE(CanExtendToCyclicOrientation(Cycle(3), {{0, 1}, {2, 1}}));
}

TEST(CyclicExtensionTest, FullyOrientedAcyclicTriangleNotExtendable) {
  EXPECT_FALSE(
      CanExtendToCyclicOrientation(Cycle(3), {{0, 1}, {1, 2}, {0, 2}}));
}

TEST(CyclicExtensionTest, SquareWithAlternatingOrientationBlocked) {
  // C4 with 0->1 and 2->1, 2->3, 0->3: both cycle directions are blocked.
  EXPECT_FALSE(CanExtendToCyclicOrientation(
      Cycle(4), {{0, 1}, {2, 1}, {2, 3}, {0, 3}}));
  // But orienting consistently around leaves it extendable.
  EXPECT_TRUE(CanExtendToCyclicOrientation(Cycle(4), {{0, 1}, {1, 2}}));
}

TEST(CyclicExtensionTest, LongerCycleThroughUnorientedChords) {
  // Triangle 0-1-2 plus pendant path: orientation on the pendant does not
  // affect extendability of the triangle.
  ConflictGraph g(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  EXPECT_TRUE(CanExtendToCyclicOrientation(g, {{3, 4}}));
  EXPECT_FALSE(CanExtendToCyclicOrientation(g, {{0, 1}, {2, 1}, {3, 4}}));
}

}  // namespace
}  // namespace prefrep
