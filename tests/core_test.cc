// Tests for the paper's core contribution (src/core): the optimality
// notions of §3 on the paper's own examples, Algorithm 1 (Prop. 1), the
// four repair families, their containments and characterizations
// (Props. 3-7, Theorems 1-2).
//
// NOTE on Example 9: the printed example is internally inconsistent — the
// instance it lists has four repairs (not two), and under its total
// priority S-Rep is a singleton. In fact S-Rep always satisfies P4 (see
// DESIGN.md "Errata" for the proof); the S-vs-G separation the example
// intends is exhibited here with a partial priority on a conflict 6-cycle
// (MakeCycleInstance), and non-categoricity genuinely fails only for L-Rep
// (Example 8, which is correct as printed).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "constraints/fd_theory.h"
#include "core/algorithm1.h"
#include "core/families.h"
#include "core/optimality.h"
#include "core/properties.h"
#include "graph/digraph.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

// Shorthand: materialize a family as a set of sorted vectors.
std::set<std::vector<int>> Family(const ConflictGraph& g, const Priority& p,
                                  RepairFamily family) {
  auto repairs = PreferredRepairs(g, p, family);
  CHECK(repairs.ok()) << repairs.status().ToString();
  std::set<std::vector<int>> out;
  for (const DynamicBitset& r : *repairs) out.insert(r.ToVector());
  return out;
}

// ------------------------------------------------- Example 7 (Figure 2) --

class Example7 : public ::testing::Test {
 protected:
  // R(A,B), F = {A -> B}, r = {ta=(1,1), tb=(1,2), tc=(1,3)},
  // priority: ta ≻ tc and ta ≻ tb. Conflict graph: triangle.
  void SetUp() override {
    ASSERT_TRUE(db_.AddRelation(*Schema::Create(
                        "R", {Attribute{"A", ValueType::kNumber},
                              Attribute{"B", ValueType::kNumber}}))
                    .ok());
    for (int b : {1, 2, 3}) {
      ASSERT_TRUE(
          db_.Insert("R", Tuple::Of(Value::Number(1), Value::Number(b)))
              .ok());
    }
    Schema schema = (*db_.relation("R"))->schema();
    fds_ = {*FunctionalDependency::Parse(schema, "A -> B")};
    auto problem = RepairProblem::Create(&db_, fds_);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<RepairProblem>(*std::move(problem));
    auto priority = Priority::Create(problem_->graph(), {{0, 2}, {0, 1}});
    ASSERT_TRUE(priority.ok());
    priority_ = std::make_unique<Priority>(*std::move(priority));
  }

  Database db_;
  std::vector<FunctionalDependency> fds_;
  std::unique_ptr<RepairProblem> problem_;
  std::unique_ptr<Priority> priority_;  // ta=0, tb=1, tc=2
};

TEST_F(Example7, RepairsAreSingletons) {
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kAll),
            (std::set<std::vector<int>>{{0}, {1}, {2}}));
}

TEST_F(Example7, OnlyTaIsLocallyOptimal) {
  const ConflictGraph& g = problem_->graph();
  EXPECT_TRUE(
      *IsPreferredRepair(g, *priority_, RepairFamily::kLocal,
                         DynamicBitset::FromIndices(3, {0})));
  EXPECT_FALSE(
      *IsPreferredRepair(g, *priority_, RepairFamily::kLocal,
                         DynamicBitset::FromIndices(3, {1})));
  EXPECT_FALSE(
      *IsPreferredRepair(g, *priority_, RepairFamily::kLocal,
                         DynamicBitset::FromIndices(3, {2})));
  EXPECT_EQ(Family(g, *priority_, RepairFamily::kLocal),
            (std::set<std::vector<int>>{{0}}));
}

TEST_F(Example7, OneKeyMakesLocalAndSemiGlobalCoincide) {
  // Proposition 3: for one key dependency L-Rep == S-Rep.
  Schema schema = (*db_.relation("R"))->schema();
  ASSERT_TRUE(IsSingleKeyDependency(schema, fds_));
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kLocal),
            Family(problem_->graph(), *priority_, RepairFamily::kSemiGlobal));
}

// ------------------------------------------------- Example 8 (Figure 3) --

class Example8 : public ::testing::Test {
 protected:
  // R(A,B,C), F = {A -> B}, r = {ta=(1,1,1), tb=(1,1,2), tc=(1,2,3)},
  // total priority: tc ≻ ta and tc ≻ tb. Conflict graph: ta - tc - tb
  // (ta, tb are non-conflicting "duplicates").
  void SetUp() override {
    ASSERT_TRUE(db_.AddRelation(*Schema::Create(
                        "R", {Attribute{"A", ValueType::kNumber},
                              Attribute{"B", ValueType::kNumber},
                              Attribute{"C", ValueType::kNumber}}))
                    .ok());
    ASSERT_TRUE(db_.Insert("R", Tuple::Of(Value::Number(1), Value::Number(1),
                                          Value::Number(1)))
                    .ok());
    ASSERT_TRUE(db_.Insert("R", Tuple::Of(Value::Number(1), Value::Number(1),
                                          Value::Number(2)))
                    .ok());
    ASSERT_TRUE(db_.Insert("R", Tuple::Of(Value::Number(1), Value::Number(2),
                                          Value::Number(3)))
                    .ok());
    Schema schema = (*db_.relation("R"))->schema();
    fds_ = {*FunctionalDependency::Parse(schema, "A -> B")};
    auto problem = RepairProblem::Create(&db_, fds_);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<RepairProblem>(*std::move(problem));
    auto priority = Priority::Create(problem_->graph(), {{2, 0}, {2, 1}});
    ASSERT_TRUE(priority.ok());
    priority_ = std::make_unique<Priority>(*std::move(priority));
  }

  Database db_;
  std::vector<FunctionalDependency> fds_;
  std::unique_ptr<RepairProblem> problem_;
  std::unique_ptr<Priority> priority_;  // ta=0, tb=1, tc=2
};

TEST_F(Example8, TwoRepairs) {
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kAll),
            (std::set<std::vector<int>>{{0, 1}, {2}}));
}

TEST_F(Example8, PriorityIsTotal) {
  EXPECT_TRUE(priority_->IsTotalFor(problem_->graph()));
}

TEST_F(Example8, BothRepairsLocallyOptimal) {
  // The paper: "All the repairs are locally optimal" — L-Rep fails P4.
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kLocal),
            (std::set<std::vector<int>>{{0, 1}, {2}}));
  EXPECT_FALSE(
      *SatisfiesCategoricityFor(problem_->graph(), *priority_,
                                RepairFamily::kLocal));
}

TEST_F(Example8, SemiGlobalRejectsTheDuplicatePair) {
  // §3.2: r1 = {ta, tb} is not semi-globally optimal; r2 = {tc} is.
  const ConflictGraph& g = problem_->graph();
  EXPECT_FALSE(*IsPreferredRepair(g, *priority_, RepairFamily::kSemiGlobal,
                                     DynamicBitset::FromIndices(3, {0, 1})));
  EXPECT_TRUE(*IsPreferredRepair(g, *priority_, RepairFamily::kSemiGlobal,
                                    DynamicBitset::FromIndices(3, {2})));
  EXPECT_EQ(Family(g, *priority_, RepairFamily::kSemiGlobal),
            (std::set<std::vector<int>>{{2}}));
}

TEST_F(Example8, OneFdMakesSemiGlobalAndGlobalCoincide) {
  // Proposition 4: for one FD, G-Rep == S-Rep.
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kSemiGlobal),
            Family(problem_->graph(), *priority_, RepairFamily::kGlobal));
}

// --------------------------------- Example 9 as printed (with erratum) --

class Example9AsPrinted : public ::testing::Test {
 protected:
  // R(A,B,C,D), F = {A->B, C->D},
  // r = {ta=(1,1,0,0), tb=(1,2,1,1), tc=(2,1,1,2), td=(2,2,2,1),
  //      te=(0,0,2,2)}, total priority ta≻tb≻tc≻td≻te.
  void SetUp() override {
    ASSERT_TRUE(db_.AddRelation(*Schema::Create(
                        "R", {Attribute{"A", ValueType::kNumber},
                              Attribute{"B", ValueType::kNumber},
                              Attribute{"C", ValueType::kNumber},
                              Attribute{"D", ValueType::kNumber}}))
                    .ok());
    auto insert = [&](int a, int b, int c, int d) {
      ASSERT_TRUE(db_.Insert("R", Tuple::Of(Value::Number(a),
                                            Value::Number(b), Value::Number(c),
                                            Value::Number(d)))
                      .ok());
    };
    insert(1, 1, 0, 0);  // ta = 0
    insert(1, 2, 1, 1);  // tb = 1
    insert(2, 1, 1, 2);  // tc = 2
    insert(2, 2, 2, 1);  // td = 3
    insert(0, 0, 2, 2);  // te = 4
    Schema schema = (*db_.relation("R"))->schema();
    fds_ = {*FunctionalDependency::Parse(schema, "A -> B"),
            *FunctionalDependency::Parse(schema, "C -> D")};
    auto problem = RepairProblem::Create(&db_, fds_);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<RepairProblem>(*std::move(problem));
    auto priority =
        Priority::Create(problem_->graph(), {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
    ASSERT_TRUE(priority.ok());
    priority_ = std::make_unique<Priority>(*std::move(priority));
  }

  Database db_;
  std::vector<FunctionalDependency> fds_;
  std::unique_ptr<RepairProblem> problem_;
  std::unique_ptr<Priority> priority_;
};

TEST_F(Example9AsPrinted, ConflictGraphIsThePath) {
  const ConflictGraph& g = problem_->graph();
  EXPECT_EQ(g.edges(), (std::vector<std::pair<int, int>>{
                           {0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  EXPECT_TRUE(priority_->IsTotalFor(g));
}

TEST_F(Example9AsPrinted, ErratumInstanceHasFourRepairsNotTwo) {
  // The paper lists RepF(r) = {{ta,tc,te}, {tb,td}}, but {ta,td} and
  // {tb,te} are also maximal consistent subsets of the printed instance.
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kAll),
            (std::set<std::vector<int>>{{0, 2, 4}, {0, 3}, {1, 3}, {1, 4}}));
}

TEST_F(Example9AsPrinted, ErratumSemiGlobalIsCategoricalHere) {
  // Under the printed *total* priority, S-Rep is the singleton
  // {{ta,tc,te}} (S-Rep satisfies P4 in general; see DESIGN.md).
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kSemiGlobal),
            (std::set<std::vector<int>>{{0, 2, 4}}));
  // It coincides with the Algorithm 1 output, as the P4 proof predicts.
  EXPECT_EQ(CleanDatabase(problem_->graph(), *priority_).ToVector(),
            (std::vector<int>{0, 2, 4}));
}

TEST_F(Example9AsPrinted, AllFamiliesCollapseUnderThisTotalPriority) {
  auto expected = std::set<std::vector<int>>{{0, 2, 4}};
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kSemiGlobal),
            expected);
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kGlobal),
            expected);
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kCommon),
            expected);
}

// ------------------- Corrected S vs G separation (conflict 6-cycle) -------

class CycleSeparation : public ::testing::Test {
 protected:
  // 6-cycle u0-v0-u1-v1-u2-v2 with partial priority {v_i ≻ u_i}.
  // u_i = 2i, v_i = 2i+1.
  void SetUp() override {
    inst_ = MakeCycleInstance(3);
    auto problem = RepairProblem::Create(inst_.db.get(), inst_.fds);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<RepairProblem>(*std::move(problem));
    auto priority = Priority::Create(problem_->graph(),
                                     {{1, 0}, {3, 2}, {5, 4}});
    ASSERT_TRUE(priority.ok());
    priority_ = std::make_unique<Priority>(*std::move(priority));
  }

  GeneratedInstance inst_;
  std::unique_ptr<RepairProblem> problem_;
  std::unique_ptr<Priority> priority_;
};

TEST_F(CycleSeparation, SemiGlobalKeepsBothTriples) {
  // Each v_i dominates only one of its two u-neighbors, so no single
  // tuple can evict a set: both alternating triples are S-optimal.
  EXPECT_EQ(Family(problem_->graph(), *priority_, RepairFamily::kSemiGlobal),
            (std::set<std::vector<int>>{{0, 2, 4}, {1, 3, 5}}));
}

TEST_F(CycleSeparation, GlobalDropsTheDominatedTriple) {
  // {u0,u1,u2} ≪ {v0,v1,v2}: every u_i is dominated by v_i. This is the
  // set-for-set trade S-optimality cannot see (§3.3's intent).
  const ConflictGraph& g = problem_->graph();
  DynamicBitset u_triple = DynamicBitset::FromIndices(6, {0, 2, 4});
  DynamicBitset v_triple = DynamicBitset::FromIndices(6, {1, 3, 5});
  EXPECT_TRUE(IsPreferredOver(*priority_, u_triple, v_triple));
  EXPECT_FALSE(IsPreferredOver(*priority_, v_triple, u_triple));
  EXPECT_FALSE(
      *IsPreferredRepair(g, *priority_, RepairFamily::kGlobal, u_triple));
  EXPECT_TRUE(
      *IsPreferredRepair(g, *priority_, RepairFamily::kGlobal, v_triple));
  EXPECT_EQ(Family(g, *priority_, RepairFamily::kGlobal),
            (std::set<std::vector<int>>{{1, 3, 5}}));
}

TEST_F(CycleSeparation, StrictChainOfFamilies) {
  auto all = Family(problem_->graph(), *priority_, RepairFamily::kAll);
  auto local = Family(problem_->graph(), *priority_, RepairFamily::kLocal);
  auto semi =
      Family(problem_->graph(), *priority_, RepairFamily::kSemiGlobal);
  auto global = Family(problem_->graph(), *priority_, RepairFamily::kGlobal);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(local.size(), 2u);
  EXPECT_EQ(semi.size(), 2u);
  EXPECT_EQ(global.size(), 1u);
}

// ------------------------------------------- C-Rep ⊊ G-Rep strictness ----

TEST(CommonVsGlobalTest, DuplicatesWitnessSeparatesThem) {
  // R(A,B,C) with FD A -> B: duplicates x1=(1,0,1), x2=(1,0,2) and rivals
  // y1=(1,1,3), y2=(1,2,4). Priority y1≻x1, y2≻x2.
  // G-Rep contains {x1,x2} (no repair ≪-dominates it: any witness holds at
  // most one of y1, y2), but Algorithm 1 can never pick x1 or x2 first, so
  // C-Rep = {{y1}, {y2}} ⊊ G-Rep.
  GeneratedInstance inst = MakeDuplicatesInstance(1, 2, 2);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  // ids: x1=0, x2=1, y1=2, y2=3.
  auto priority = Priority::Create(g, {{2, 0}, {3, 1}});
  ASSERT_TRUE(priority.ok());

  EXPECT_EQ(Family(g, *priority, RepairFamily::kAll),
            (std::set<std::vector<int>>{{0, 1}, {2}, {3}}));
  EXPECT_EQ(Family(g, *priority, RepairFamily::kGlobal),
            (std::set<std::vector<int>>{{0, 1}, {2}, {3}}));
  EXPECT_EQ(Family(g, *priority, RepairFamily::kCommon),
            (std::set<std::vector<int>>{{2}, {3}}));
  // Consistency with Theorem 2: this priority *can* be extended to a
  // cyclic orientation (x1 -> y2 -> x2 -> y1 -> x1 closes a 4-cycle), so
  // C-Rep = G-Rep is not promised, and indeed fails.
  EXPECT_TRUE(CanExtendToCyclicOrientation(g, priority->arcs()));
}

// -------------------------------------------------------- IsPreferredOver --

TEST(IsPreferredOverTest, VacuousOnEqualSets) {
  ConflictGraph g(2, {{0, 1}});
  Priority p = *Priority::Create(g, {{0, 1}});
  DynamicBitset r = DynamicBitset::FromIndices(2, {0});
  EXPECT_TRUE(IsPreferredOver(p, r, r));
}

TEST(IsPreferredOverTest, SingleEdge) {
  ConflictGraph g(2, {{0, 1}});
  Priority p = *Priority::Create(g, {{0, 1}});  // 0 ≻ 1
  DynamicBitset r0 = DynamicBitset::FromIndices(2, {0});
  DynamicBitset r1 = DynamicBitset::FromIndices(2, {1});
  EXPECT_TRUE(IsPreferredOver(p, r1, r0));   // r1 ≪ r0
  EXPECT_FALSE(IsPreferredOver(p, r0, r1));
}

TEST(IsPreferredOverTest, RequiresDominatorInDifference) {
  // 0 ≻ 1 but 0 present in both sets: domination must come from r2 \ r1.
  ConflictGraph g(4, {{0, 1}, {1, 2}, {2, 3}});
  Priority p = *Priority::Create(g, {{2, 1}});
  DynamicBitset r1 = DynamicBitset::FromIndices(4, {0, 2});
  DynamicBitset r2 = DynamicBitset::FromIndices(4, {0, 3});
  // r1 \ r2 = {2}; r2 \ r1 = {3}; 3 does not dominate 2.
  EXPECT_FALSE(IsPreferredOver(p, r1, r2));
}

// ------------------------------------------------------------ Algorithm 1 --

TEST(Algorithm1Test, TotalPriorityUniqueResultAnyOrder) {
  // Proposition 1: for a total priority the result is unique regardless
  // of the choices in Step 3.
  GeneratedInstance inst = MakeChainInstance(7);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  Rng rng(99);
  Priority total = RandomRankingPriority(rng, g, 1.0);
  ASSERT_TRUE(total.IsTotalFor(g));

  DynamicBitset reference = CleanDatabase(g, total);
  EXPECT_TRUE(g.IsMaximalIndependent(reference));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> order = rng.Permutation(g.vertex_count());
    EXPECT_EQ(CleanDatabase(g, total, order), reference);
  }
  EXPECT_EQ(CleanDatabaseTotal(g, total), reference);
}

TEST(Algorithm1Test, PartialPriorityResultsAreAlwaysRepairs) {
  GeneratedInstance inst = MakeCycleInstance(4);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Priority p = RandomDagPriority(rng, problem->graph(), 0.5);
    std::vector<int> order = rng.Permutation(problem->tuple_count());
    DynamicBitset result = CleanDatabase(problem->graph(), p, order);
    EXPECT_TRUE(problem->graph().IsMaximalIndependent(result));
    // Every Algorithm 1 output is a common repair (Prop. 7) and therefore
    // globally optimal (Thm. 1 / Prop. 6).
    EXPECT_TRUE(*IsPreferredRepair(problem->graph(), p, RepairFamily::kCommon,
                                   result));
    EXPECT_TRUE(*IsPreferredRepair(problem->graph(), p, RepairFamily::kGlobal,
                                   result));
  }
}

TEST(Algorithm1Test, EmptyPriorityIdentityOrderPicksGreedily) {
  // With no priority and identity order the algorithm keeps the first
  // tuple of every conflict pair of r_n.
  GeneratedInstance rn = MakeRnInstance(4);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  EXPECT_EQ(CleanDatabase(problem->graph(), empty).ToVector(),
            (std::vector<int>{0, 2, 4, 6}));
}

// ------------------------------------------------ Prop. 7: C-Rep checker --

TEST(CommonRepairTest, MatchesExplicitRunEnumeration) {
  // IsCommonRepair (greedy, PTIME) agrees with the exhaustive DFS over
  // Algorithm 1 runs on random instances and priorities.
  Rng rng(1234);
  for (int trial = 0; trial < 15; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 3, 3, 2);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    const ConflictGraph& g = problem->graph();
    Priority p = RandomDagPriority(rng, g, 0.6);

    auto common = PreferredRepairs(g, p, RepairFamily::kCommon);
    ASSERT_TRUE(common.ok());
    std::set<DynamicBitset> common_set(common->begin(), common->end());

    auto all = PreferredRepairs(g, Priority(), RepairFamily::kAll);
    ASSERT_TRUE(all.ok());
    for (const DynamicBitset& r : *all) {
      EXPECT_EQ(*IsPreferredRepair(g, p, RepairFamily::kCommon, r),
                common_set.contains(r))
          << "trial " << trial << " repair " << r.ToString();
    }
  }
}

TEST(CommonRepairTest, EmptyPriorityMakesEveryRepairCommon) {
  GeneratedInstance inst = MakeCycleInstance(3);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  auto all =
      PreferredRepairs(problem->graph(), Priority(), RepairFamily::kAll);
  ASSERT_TRUE(all.ok());
  for (const DynamicBitset& r : *all) {
    EXPECT_TRUE(
        *IsPreferredRepair(problem->graph(), empty, RepairFamily::kCommon, r));
  }
}

// --------------------------------------------------- family machinery ----

TEST(FamiliesTest, NamesAreStable) {
  EXPECT_EQ(RepairFamilyName(RepairFamily::kAll), "Rep");
  EXPECT_EQ(RepairFamilyName(RepairFamily::kLocal), "L-Rep");
  EXPECT_EQ(RepairFamilyName(RepairFamily::kSemiGlobal), "S-Rep");
  EXPECT_EQ(RepairFamilyName(RepairFamily::kGlobal), "G-Rep");
  EXPECT_EQ(RepairFamilyName(RepairFamily::kCommon), "C-Rep");
}

TEST(FamiliesTest, IsPreferredRepairAgreesWithEnumerationEverywhere) {
  Rng rng(555);
  for (int trial = 0; trial < 8; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 3, 3, 2);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    const ConflictGraph& g = problem->graph();
    Priority p = RandomDagPriority(rng, g, 0.5);
    auto all = PreferredRepairs(g, Priority(), RepairFamily::kAll);
    ASSERT_TRUE(all.ok());
    for (RepairFamily family : kAllFamilies) {
      auto preferred = PreferredRepairs(g, p, family);
      ASSERT_TRUE(preferred.ok());
      std::set<DynamicBitset> preferred_set(preferred->begin(),
                                            preferred->end());
      for (const DynamicBitset& r : *all) {
        EXPECT_EQ(*IsPreferredRepair(g, p, family, r),
                  preferred_set.contains(r))
            << RepairFamilyName(family) << " trial " << trial;
      }
    }
  }
  // Multi-component path graphs: membership checks decompose over
  // components (G-Rep's witness search included) and must still agree
  // with the enumerated families.
  for (const std::vector<int>& sizes :
       {std::vector<int>{4, 1, 5}, std::vector<int>{3, 3, 3, 2},
        std::vector<int>{6, 2, 1, 4}}) {
    ConflictGraph g = MakeComponentPathsGraph(rng, sizes);
    Priority p = RandomRankingPriority(rng, g, 0.7);
    auto all = PreferredRepairs(g, Priority(), RepairFamily::kAll);
    ASSERT_TRUE(all.ok());
    for (RepairFamily family : kAllFamilies) {
      auto preferred = PreferredRepairs(g, p, family);
      ASSERT_TRUE(preferred.ok());
      std::set<DynamicBitset> preferred_set(preferred->begin(),
                                            preferred->end());
      for (const DynamicBitset& r : *all) {
        EXPECT_EQ(*IsPreferredRepair(g, p, family, r),
                  preferred_set.contains(r))
            << RepairFamilyName(family) << " on " << sizes.size()
            << " components";
      }
    }
  }
}

TEST(FamiliesTest, GlobalRepairCheckingSearchesEachComponent) {
  // 12 paths of 6 vertices have 5^12 (~2.4e8) repairs; checking one
  // G-Rep member against all of them takes minutes, while a search per
  // component visits 12 x 5. The bound is generous for Debug and
  // sanitizer builds.
  Rng rng(1212);
  ConflictGraph g = MakeComponentPathsGraph(rng, std::vector<int>(12, 6));
  Priority p = RandomRankingPriority(rng, g, 0.7);
  DynamicBitset member;
  Status walked = ForEachPreferredRepair(
      g, p, RepairFamily::kGlobal, {},
      [&member](int /*worker*/, const DynamicBitset& r) {
        member = r;
        return false;
      });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  ASSERT_EQ(member.size(), g.vertex_count());
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(*IsPreferredRepair(g, p, RepairFamily::kGlobal, member));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(FamiliesTest, RepairCheckingRejectsPriorityOverAnotherGraph) {
  // A priority built over an 8-vertex graph, asked about a 12-vertex one
  // (e.g. a parent snapshot's priority on a derived child): every family
  // that reads the priority rejects it instead of indexing past its end.
  Rng rng(1808);
  ConflictGraph small = MakeComponentPathsGraph(rng, {4, 4});
  ConflictGraph large = MakeComponentPathsGraph(rng, {4, 4, 4});
  ASSERT_EQ(small.vertex_count(), 8);
  ASSERT_EQ(large.vertex_count(), 12);
  Priority p = RandomRankingPriority(rng, small, 0.7);
  ASSERT_GT(p.arc_count(), 0);
  auto repairs = PreferredRepairs(large, Priority(), RepairFamily::kAll);
  ASSERT_TRUE(repairs.ok());
  for (const DynamicBitset& r : *repairs) {
    for (RepairFamily family : kAllFamilies) {
      Result<bool> member = IsPreferredRepair(large, p, family, r);
      if (family == RepairFamily::kAll) {
        ASSERT_TRUE(member.ok()) << member.status().ToString();
        EXPECT_TRUE(*member);
        continue;
      }
      ASSERT_FALSE(member.ok()) << RepairFamilyName(family);
      EXPECT_EQ(member.status().code(), StatusCode::kInvalidArgument)
          << RepairFamilyName(family);
    }
  }
}

// IsPreferredRepair is the only public X-repair check: the per-family
// predicates sit behind its priority check. A call the headers still
// resolved would index a foreign priority unchecked (a heap overflow at
// Priority::Dominates under ASan), so each family's test first asserts
// that no such call resolves.
template <typename Graph>
concept UncheckedLocalCheck =
    requires(const Graph& g, const Priority& p, const DynamicBitset& r) {
      IsLocallyOptimal(g, p, r);
    };
template <typename Graph>
concept UncheckedSemiGlobalCheck =
    requires(const Graph& g, const Priority& p, const DynamicBitset& r) {
      IsSemiGloballyOptimal(g, p, r);
    };
template <typename Graph>
concept UncheckedGlobalCheck =
    requires(const Graph& g, const Priority& p, const DynamicBitset& r) {
      IsGloballyOptimal(g, p, r);
    };
template <typename Graph>
concept UncheckedCommonCheck =
    requires(const Graph& g, const Priority& p, const DynamicBitset& r) {
      IsCommonRepair(g, p, r);
    };

// `family`'s check on every repair of a 12-vertex graph: kInvalidArgument
// under a priority over 8 vertices, over 16 vertices, and over 12
// vertices with an arc on no conflict edge; the enumerated answer under
// the graph's own priority.
void ExpectCheckReadsOnlyItsOwnGraph(RepairFamily family) {
  Rng rng(1809);
  ConflictGraph small = MakeComponentPathsGraph(rng, {4, 4});
  ConflictGraph large = MakeComponentPathsGraph(rng, {4, 4, 4});
  ConflictGraph larger = MakeComponentPathsGraph(rng, {4, 4, 4, 4});
  std::pair<int, int> off_edge{-1, -1};
  for (int u = 0; u < 12 && off_edge.first < 0; ++u) {
    for (int v = u + 1; v < 12 && off_edge.first < 0; ++v) {
      if (!large.HasEdge(u, v)) off_edge = {u, v};
    }
  }
  ConflictGraph other(12, {off_edge});
  std::vector<Priority> foreign = {
      RandomRankingPriority(rng, small, 0.7),
      RandomRankingPriority(rng, larger, 0.7),
      *Priority::Create(other, {off_edge})};
  Priority own = RandomRankingPriority(rng, large, 0.7);
  auto repairs = PreferredRepairs(large, Priority(), RepairFamily::kAll);
  auto members = PreferredRepairs(large, own, family);
  ASSERT_TRUE(repairs.ok());
  ASSERT_TRUE(members.ok());
  std::set<DynamicBitset> member_set(members->begin(), members->end());
  for (const DynamicBitset& r : *repairs) {
    for (const Priority& p : foreign) {
      ASSERT_GT(p.arc_count(), 0);
      Result<bool> member = IsPreferredRepair(large, p, family, r);
      ASSERT_FALSE(member.ok()) << p.ToString();
      EXPECT_EQ(member.status().code(), StatusCode::kInvalidArgument);
    }
    Result<bool> member = IsPreferredRepair(large, own, family, r);
    ASSERT_TRUE(member.ok()) << member.status().ToString();
    EXPECT_EQ(*member, member_set.contains(r));
  }
}

TEST(RepairCheckingTest, LocalCheckReadsOnlyItsOwnGraph) {
  static_assert(!UncheckedLocalCheck<ConflictGraph>);
  ExpectCheckReadsOnlyItsOwnGraph(RepairFamily::kLocal);
}

TEST(RepairCheckingTest, SemiGlobalCheckReadsOnlyItsOwnGraph) {
  static_assert(!UncheckedSemiGlobalCheck<ConflictGraph>);
  ExpectCheckReadsOnlyItsOwnGraph(RepairFamily::kSemiGlobal);
}

TEST(RepairCheckingTest, GlobalCheckReadsOnlyItsOwnGraph) {
  static_assert(!UncheckedGlobalCheck<ConflictGraph>);
  ExpectCheckReadsOnlyItsOwnGraph(RepairFamily::kGlobal);
}

TEST(RepairCheckingTest, CommonCheckReadsOnlyItsOwnGraph) {
  static_assert(!UncheckedCommonCheck<ConflictGraph>);
  ExpectCheckReadsOnlyItsOwnGraph(RepairFamily::kCommon);
}

TEST(FamiliesTest, EnumerationShortCircuits) {
  GeneratedInstance rn = MakeRnInstance(16);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  int seen = 0;
  bool complete = true;
  Status walked = ForEachPreferredRepair(
      problem->graph(), empty, RepairFamily::kLocal, {},
      [&](int /*worker*/, const DynamicBitset&) {
        complete = ++seen < 5;
        return complete;
      });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 5);
}

TEST(FamiliesTest, GlobalEnumerationShortCircuits) {
  // The G-Rep enumerator materializes the repair list before certifying;
  // early callback exits must still propagate as incomplete enumeration.
  GeneratedInstance rn = MakeRnInstance(4);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  int seen = 0;
  bool complete = true;
  Status walked = ForEachPreferredRepair(
      problem->graph(), empty, RepairFamily::kGlobal, {},
      [&](int /*worker*/, const DynamicBitset&) {
        complete = ++seen < 3;
        return complete;
      });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 3);
}

TEST(FamiliesTest, PreferredRepairsLimit) {
  GeneratedInstance rn = MakeRnInstance(12);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  EvalOptions capped;
  capped.limits.max_repair_list = 100;
  auto limited =
      PreferredRepairs(problem->graph(), empty, RepairFamily::kAll, capped);
  EXPECT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------------- Theorem 2 -------

TEST(Theorem2Test, ForestConflictGraphsAlwaysHaveCommonEqualGlobal) {
  // Chains/trees admit no cyclic orientation, so the condition of
  // Theorem 2 holds for every priority: C-Rep == G-Rep.
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    GeneratedInstance inst = MakeChainInstance(7);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    const ConflictGraph& g = problem->graph();
    Priority p = RandomDagPriority(rng, g, rng.UniformDouble());
    ASSERT_FALSE(CanExtendToCyclicOrientation(g, p.arcs()));
    EXPECT_EQ(Family(g, p, RepairFamily::kCommon),
              Family(g, p, RepairFamily::kGlobal))
        << "trial " << trial;
  }
}

TEST(Theorem2Test, HoldsOnRnInstances) {
  Rng rng(43);
  GeneratedInstance rn = MakeRnInstance(6);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  for (int trial = 0; trial < 10; ++trial) {
    Priority p = RandomDagPriority(rng, problem->graph(),
                                   rng.UniformDouble());
    ASSERT_FALSE(CanExtendToCyclicOrientation(problem->graph(), p.arcs()));
    EXPECT_EQ(Family(problem->graph(), p, RepairFamily::kCommon),
              Family(problem->graph(), p, RepairFamily::kGlobal));
  }
}

}  // namespace
}  // namespace prefrep
