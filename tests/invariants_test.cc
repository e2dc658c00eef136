// Cross-module invariants checked on randomized inputs:
//   - DynamicBitset against a std::set reference model,
//   - masked evaluation vs evaluation on the materialized sub-database
//     (for negation-free queries, where the active-domain choice cannot
//     matter),
//   - priority extension algebra,
//   - repair materialization round trips.

#include <gtest/gtest.h>

#include <set>

#include "core/families.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

TEST(BitsetModelTest, RandomOpsMatchSetReference) {
  Rng rng(424242);
  constexpr int kUniverse = 150;
  DynamicBitset bits(kUniverse);
  std::set<int> reference;
  for (int step = 0; step < 3000; ++step) {
    int op = static_cast<int>(rng.UniformInt(5));
    int v = static_cast<int>(rng.UniformInt(kUniverse));
    switch (op) {
      case 0:
        bits.Set(v);
        reference.insert(v);
        break;
      case 1:
        bits.Reset(v);
        reference.erase(v);
        break;
      case 2:
        EXPECT_EQ(bits.Test(v), reference.contains(v));
        break;
      case 3:
        EXPECT_EQ(bits.Count(), static_cast<int>(reference.size()));
        break;
      default: {
        // NextSetBit agrees with the reference's lower_bound.
        auto it = reference.lower_bound(v);
        int expected = it == reference.end() ? -1 : *it;
        EXPECT_EQ(bits.NextSetBit(v), expected);
        break;
      }
    }
  }
  EXPECT_EQ(bits.ToVector(),
            std::vector<int>(reference.begin(), reference.end()));
}

TEST(BitsetModelTest, AlgebraMatchesSetAlgebra) {
  Rng rng(99999);
  constexpr int kUniverse = 100;
  for (int trial = 0; trial < 50; ++trial) {
    std::set<int> sa, sb;
    DynamicBitset a(kUniverse), b(kUniverse);
    for (int i = 0; i < kUniverse; ++i) {
      if (rng.Bernoulli(0.3)) {
        a.Set(i);
        sa.insert(i);
      }
      if (rng.Bernoulli(0.3)) {
        b.Set(i);
        sb.insert(i);
      }
    }
    std::set<int> s_union, s_inter, s_diff;
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::inserter(s_union, s_union.begin()));
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::inserter(s_inter, s_inter.begin()));
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::inserter(s_diff, s_diff.begin()));
    EXPECT_EQ((a | b).ToVector(),
              std::vector<int>(s_union.begin(), s_union.end()));
    EXPECT_EQ((a & b).ToVector(),
              std::vector<int>(s_inter.begin(), s_inter.end()));
    EXPECT_EQ(Difference(a, b).ToVector(),
              std::vector<int>(s_diff.begin(), s_diff.end()));
    EXPECT_EQ(a.Intersects(b), !s_inter.empty());
    EXPECT_EQ(a.IsSubsetOf(b),
              std::includes(sb.begin(), sb.end(), sa.begin(), sa.end()));
  }
}

TEST(MaskedEvalTest, MatchesInducedDatabaseForMonotoneQueries) {
  Rng rng(314159);
  const char* kQueries[] = {
      "exists x, y . R(x, y)",
      "exists x . R(x, 0) and x >= 1",
      "exists x, y . R(x, y) and y < 2",
      "R(0, 0) or R(1, 1)",
      "exists x . R(x, 1) or R(x, 2)",
  };
  for (int trial = 0; trial < 8; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 2, 3, 1);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    auto repairs =
        PreferredRepairs(problem->graph(), Priority(), RepairFamily::kAll);
    ASSERT_TRUE(repairs.ok());
    for (const DynamicBitset& repair : *repairs) {
      Database induced = inst.db->Induce(repair);
      for (const char* text : kQueries) {
        auto query = ParseQuery(text);
        ASSERT_TRUE(query.ok());
        auto masked = EvalClosed(*inst.db, &repair, **query);
        auto direct = EvalClosed(induced, nullptr, **query);
        ASSERT_TRUE(masked.ok() && direct.ok());
        EXPECT_EQ(*masked, *direct) << text;
      }
    }
  }
}

TEST(PriorityAlgebraTest, ExtensionIsReflexiveTransitiveAntisymmetric) {
  GeneratedInstance inst = MakeCycleInstance(4);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  Rng rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    // Build a chain p0 ⊆ p1 ⊆ p2 by progressively orienting more edges
    // of one global ranking.
    std::vector<int> perm = rng.Permutation(g.vertex_count());
    std::vector<std::pair<int, int>> arcs0, arcs1, arcs2;
    for (auto [u, v] : g.edges()) {
      auto arc = perm[u] > perm[v] ? std::make_pair(u, v)
                                   : std::make_pair(v, u);
      double coin = rng.UniformDouble();
      if (coin < 0.3) arcs0.push_back(arc);
      if (coin < 0.6) arcs1.push_back(arc);
      arcs2.push_back(arc);
    }
    auto p0 = Priority::Create(g, arcs0);
    auto p1 = Priority::Create(g, arcs1);
    auto p2 = Priority::Create(g, arcs2);
    ASSERT_TRUE(p0.ok() && p1.ok() && p2.ok());
    EXPECT_TRUE(p0->IsExtendedBy(*p0));
    EXPECT_TRUE(p0->IsExtendedBy(*p1));
    EXPECT_TRUE(p1->IsExtendedBy(*p2));
    EXPECT_TRUE(p0->IsExtendedBy(*p2));  // transitivity instance
    if (p1->arc_count() > p0->arc_count()) {
      EXPECT_FALSE(p1->IsExtendedBy(*p0));  // antisymmetry instance
    }
    EXPECT_TRUE(p2->IsTotalFor(g));
  }
}

TEST(RepairMaterializationTest, InducedRepairsAreConsistentAndMaximal) {
  Rng rng(16180);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 14, 3, 3, 2);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    auto repairs =
        PreferredRepairs(problem->graph(), Priority(), RepairFamily::kAll);
    ASSERT_TRUE(repairs.ok());
    for (const DynamicBitset& repair : *repairs) {
      Database induced = inst.db->Induce(repair);
      EXPECT_TRUE(*IsConsistent(induced, inst.fds));
      // Maximality: adding back any removed tuple breaks consistency.
      DynamicBitset removed = Difference(inst.db->AllTuples(), repair);
      ForEachSetBit(removed, [&](int id) {
        DynamicBitset bigger = repair;
        bigger.Set(id);
        Database augmented = inst.db->Induce(bigger);
        EXPECT_FALSE(*IsConsistent(augmented, inst.fds));
      });
    }
  }
}

}  // namespace
}  // namespace prefrep
