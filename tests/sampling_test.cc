// Tests for src/repair/sampling.h: exact-uniform and greedy repair
// sampling.

#include <gtest/gtest.h>

#include <map>

#include "repair/repair.h"
#include "repair/sampling.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

TEST(SamplingTest, SamplesAreAlwaysRepairs) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 20, 3, 3, 2);
    auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
    ASSERT_TRUE(problem.ok());
    auto sampler = RepairSampler::Create(&problem->graph());
    ASSERT_TRUE(sampler.ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(problem->IsRepair(sampler->Sample(rng)));
      EXPECT_TRUE(problem->IsRepair(GreedyRandomRepair(problem->graph(),
                                                       rng)));
    }
  }
}

TEST(SamplingTest, RepairCountMatchesExactCounter) {
  GeneratedInstance rn = MakeRnInstance(50);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  auto sampler = RepairSampler::Create(&problem->graph());
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler->RepairCount().ToString(),
            problem->CountRepairs().ToString());
}

TEST(SamplingTest, UniformityOnPathGraph) {
  // P4 path has 3 repairs; 3000 draws should hit each ~1000 times.
  GeneratedInstance chain = MakeChainInstance(4);
  auto problem = RepairProblem::Create(chain.db.get(), chain.fds);
  ASSERT_TRUE(problem.ok());
  auto sampler = RepairSampler::Create(&problem->graph());
  ASSERT_TRUE(sampler.ok());
  Rng rng(7);
  std::map<std::vector<int>, int> histogram;
  constexpr int kDraws = 3000;
  for (int i = 0; i < kDraws; ++i) {
    ++histogram[sampler->Sample(rng).ToVector()];
  }
  ASSERT_EQ(histogram.size(), 3u);
  for (const auto& [repair, hits] : histogram) {
    EXPECT_GT(hits, kDraws / 3 - 150) << DynamicBitset::FromIndices(
        4, repair).ToString();
    EXPECT_LT(hits, kDraws / 3 + 150);
  }
}

TEST(SamplingTest, UniformityAcrossComponents) {
  // r_2 has 4 equally likely repairs (2 independent components).
  GeneratedInstance rn = MakeRnInstance(2);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  auto sampler = RepairSampler::Create(&problem->graph());
  ASSERT_TRUE(sampler.ok());
  Rng rng(11);
  std::map<std::vector<int>, int> histogram;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    ++histogram[sampler->Sample(rng).ToVector()];
  }
  ASSERT_EQ(histogram.size(), 4u);
  for (const auto& [repair, hits] : histogram) {
    EXPECT_GT(hits, 1000 - 150);
    EXPECT_LT(hits, 1000 + 150);
  }
}

TEST(SamplingTest, IsolatedTuplesAlwaysPresent) {
  GeneratedInstance inst = MakeKeyGroupsInstance(2, 2);
  // Add an isolated (conflict-free) tuple.
  ASSERT_TRUE(
      inst.db->Insert("R", Tuple::Of(Value::Number(9), Value::Number(9)))
          .ok());
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  auto sampler = RepairSampler::Create(&problem->graph());
  ASSERT_TRUE(sampler.ok());
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(sampler->Sample(rng).Test(4));  // the isolated tuple id
  }
}

TEST(SamplingTest, LimitGuardsAgainstHugeComponents) {
  // A single clique of 40 tuples has 40 repairs — fine. A limit of 8
  // makes Create refuse.
  GeneratedInstance inst = MakeKeyGroupsInstance(1, 40);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  auto refused = RepairSampler::Create(&problem->graph(), 8);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  auto allowed = RepairSampler::Create(&problem->graph(), 64);
  EXPECT_TRUE(allowed.ok());
  // A 100-vertex path has ~10^12 repairs; Create must refuse it without
  // enumerating them.
  Rng rng(16);
  ConflictGraph path = MakeComponentPathsGraph(rng, {100});
  auto huge = RepairSampler::Create(&path, 16);
  EXPECT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
}

TEST(SamplingTest, GreedySamplerCoversEveryRepairOfSmallSpaces) {
  GeneratedInstance rn = MakeRnInstance(2);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  Rng rng(17);
  std::set<std::vector<int>> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(GreedyRandomRepair(problem->graph(), rng).ToVector());
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace prefrep
