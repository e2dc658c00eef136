// Budget-exhaustion fallback chains, pinned with failpoints: a tier-1
// plan whose DNF blows the context's caps at runtime (a stale
// precomputed plan) must fall back to tier-2 enumeration; an
// enumeration whose component lists blow the context's byte budget must
// fall back to whole-graph streaming (same repair *set*, pinned via the
// "families.streaming_fallback" failpoint); and a worker throw anywhere
// in the sharded eval loop must surface as a structured Status, never
// std::terminate. Failpoint-dependent tests GTEST_SKIP in release builds
// (the registry compiles out under NDEBUG).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/failpoint.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "cqa/aggregation.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

// ------------------------------------ tier-1 -> tier-2 runtime fallback --

TEST(RobustnessFallbackTest, ContextDnfClampForcesTier2RuntimeFallback) {
  Rng rng(1);
  GeneratedInstance inst = MakeComponentsInstance(rng, {3, 3});
  RepairProblem problem = MustProblem(inst);
  ASSERT_GT(problem.graph().edge_count(), 0u);
  Priority empty = Priority::Empty(problem.graph());
  // Negating the conjunction yields a 2-disjunct DNF; the default caps
  // admit it (so ExplainPlan plans tier 1), but the context caps the
  // engine at 1 disjunct. ExplainPlan under that context would plan
  // tier 2 itself, so the runtime fallback is reached only through a
  // stale precomputed plan made under the looser caps: the ground engine
  // fails with kResourceExhausted and the planner must fall back to
  // enumeration.
  auto query = MustParse("R(0, 0, 0) and R(1, 1, 1)");
  ASSERT_TRUE(query->IsClosed());
  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kAll, *query,
                             CqaRequest::kVerdict);
  ASSERT_EQ(plan.tier, CqaTier::kGroundFastPath) << plan.ToString();

  auto reference =
      PlannedConsistentAnswer(problem, empty, RepairFamily::kAll, *query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ExecutionLimits limits;
  limits.max_dnf_disjuncts = 1;
  ExecutionContext context(limits);
  EvalOptions options;
  options.context = &context;
  options.precomputed_plan = &plan;
  CqaPlan executed;
  auto governed = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                          *query, options, &executed);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration) << executed.ToString();
  EXPECT_NE(executed.reason.find("runtime"), std::string::npos)
      << executed.reason;
  EXPECT_EQ(*governed, *reference);
}

TEST(RobustnessFallbackTest, ForcedTier1SurfacesClampedExhaustionInstead) {
  // Forcing tier 1 disables the fallback: the clamped budget must
  // surface as kResourceExhausted, not silently enumerate.
  Rng rng(2);
  GeneratedInstance inst = MakeComponentsInstance(rng, {3, 3});
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("R(0, 0, 0) and R(1, 1, 1)");
  ExecutionLimits limits;
  limits.max_dnf_disjuncts = 1;
  ExecutionContext context(limits);
  EvalOptions options;
  options.force_tier = CqaTier::kGroundFastPath;
  options.context = &context;
  auto result = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

// --------------------------- byte budget -> streaming fallback chain --

TEST(RobustnessFallbackTest, TinyByteBudgetFallsBackToStreamingSameSet) {
  Rng rng(3);
  // Several components (the product path), one connected graph and one
  // component plus isolated tuples (the in-place paths): every shape and
  // family must stream under the tiny budget and keep the repair set.
  for (const std::vector<int>& sizes :
       {std::vector<int>{4, 4, 4}, std::vector<int>{7},
        std::vector<int>{1, 6, 1, 1}}) {
    ConflictGraph graph = MakeComponentPathsGraph(rng, sizes);
    Priority priority = RandomRankingPriority(rng, graph, 0.5);
    for (RepairFamily family : kAllFamilies) {
      auto reference = PreferredRepairs(graph, priority, family);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      ExecutionLimits limits;
      limits.component_list_budget_bytes = 1;  // nothing fits
      ExecutionContext context(limits);
      EvalOptions options;
      options.context = &context;
      uint64_t fallback_hits_before = 0;
      std::unique_ptr<failpoint::ScopedFailpoint> fp;
      if (failpoint::kEnabled) {
        fp = std::make_unique<failpoint::ScopedFailpoint>(
            "families.streaming_fallback", [] {});
        fallback_hits_before = fp->hit_count();
      }
      auto squeezed = PreferredRepairs(graph, priority, family, options);
      ASSERT_TRUE(squeezed.ok()) << squeezed.status().ToString();
      if (fp != nullptr) {
        EXPECT_GT(fp->hit_count(), fallback_hits_before)
            << RepairFamilyName(family)
            << ": expected the whole-graph streaming fallback to run";
      }
      // The fallback emits in a different order than the product; the
      // repair *set* is the contract.
      std::vector<DynamicBitset> lhs = *squeezed;
      std::vector<DynamicBitset> rhs = *reference;
      auto by_bits = [](const DynamicBitset& a, const DynamicBitset& b) {
        return a.ToVector() < b.ToVector();
      };
      std::sort(lhs.begin(), lhs.end(), by_bits);
      std::sort(rhs.begin(), rhs.end(), by_bits);
      EXPECT_EQ(lhs, rhs) << RepairFamilyName(family);
    }
  }
}

TEST(RobustnessFallbackTest, ConnectedGlobalStreamingHonorsDeadline) {
  // A connected 54-vertex path under a 1-byte budget: G-Rep cannot list
  // the graph's repairs, so every repair is certified by a streaming
  // witness search over millions of repairs. The certificate must poll
  // the caller's deadline like the outer loop does.
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v + 1 < 54; ++v) edges.emplace_back(v, v + 1);
  ConflictGraph graph(54, edges);
  Rng rng(7);
  Priority priority = RandomRankingPriority(rng, graph, 0.3);
  EvalOptions options;
  options.limits.component_list_budget_bytes = 1;
  options.deadline = std::chrono::milliseconds(20);
  auto start = std::chrono::steady_clock::now();
  auto result =
      PreferredRepairs(graph, priority, RepairFamily::kGlobal, options);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

TEST(RobustnessFallbackTest, ShardedCqaUnderTinyBudgetStreamsSameVerdict) {
  // The full chain at threads = 4: sharded CQA wants materialized lists,
  // the context's byte budget rejects them, the walk degrades to
  // whole-graph streaming on the calling thread, and the verdict is
  // unchanged.
  Rng rng(4);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 4, 3});
  RepairProblem problem = MustProblem(inst);
  Priority priority = RandomDagPriority(rng, problem.graph(), 0.6);
  auto query = MustParse("exists x . R(0, x, 1)");
  for (RepairFamily family : kAllFamilies) {
    auto reference =
        PlannedConsistentAnswer(problem, priority, family, *query);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    ExecutionLimits limits;
    limits.component_list_budget_bytes = 1;
    ExecutionContext context(limits);
    EvalOptions options;
    options.threads = 4;
    options.force_tier = CqaTier::kEnumeration;
    options.context = &context;
    uint64_t hits_before = 0;
    std::unique_ptr<failpoint::ScopedFailpoint> fp;
    if (failpoint::kEnabled) {
      fp = std::make_unique<failpoint::ScopedFailpoint>(
          "families.streaming_fallback", [] {});
      hits_before = fp->hit_count();
    }
    auto squeezed = PlannedConsistentAnswer(problem, priority, family, *query,
                                            options);
    ASSERT_TRUE(squeezed.ok()) << squeezed.status().ToString();
    EXPECT_EQ(*squeezed, *reference) << RepairFamilyName(family);
    if (fp != nullptr) {
      EXPECT_GT(fp->hit_count(), hits_before) << RepairFamilyName(family);
    }
  }
}

// ----------------------------------- injected faults surface as Status --

TEST(RobustnessFallbackTest, InjectedWorkerBadAllocSurfacesResourceExhausted) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  Rng rng(5);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 4, 4});
  RepairProblem problem = MustProblem(inst);
  Priority priority = Priority::Empty(problem.graph());
  auto query = MustParse("exists x, y . R(0, x, y)");
  EvalOptions options;
  options.threads = 4;
  options.force_tier = CqaTier::kEnumeration;
  {
    // Fire once, deep in the sharded walk (skip past the first few
    // repairs so shards are genuinely mid-flight).
    failpoint::ScopedFailpoint fp("cqa.eval", [] { throw std::bad_alloc(); },
                                  /*skip=*/3, /*limit=*/1);
    auto result = PlannedConsistentAnswer(problem, priority,
                                          RepairFamily::kAll, *query, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
  }
  {
    // Aggregate ranges fold over the same walk and fail the same way.
    failpoint::ScopedFailpoint fp("cqa.eval", [] { throw std::bad_alloc(); },
                                  /*skip=*/3, /*limit=*/1);
    auto range = PlannedAggregateRange(problem, priority, RepairFamily::kAll,
                                       "R", "V", AggregateFunction::kSum,
                                       options);
    ASSERT_FALSE(range.ok());
    EXPECT_EQ(range.status().code(), StatusCode::kResourceExhausted)
        << range.status().ToString();
  }
}

TEST(RobustnessFallbackTest, InjectedWorkerThrowSurfacesInternal) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  Rng rng(6);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 4, 4});
  RepairProblem problem = MustProblem(inst);
  Priority priority = Priority::Empty(problem.graph());
  auto query = MustParse("exists x, y . R(0, x, y)");
  failpoint::ScopedFailpoint fp(
      "cqa.eval", [] { throw std::runtime_error("injected eval fault"); },
      /*skip=*/1, /*limit=*/1);
  EvalOptions options;
  options.threads = 4;
  options.force_tier = CqaTier::kEnumeration;
  auto result = PlannedConsistentAnswer(problem, priority, RepairFamily::kAll,
                                        *query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("injected eval fault"),
            std::string::npos);
}

TEST(RobustnessFallbackTest, InjectedPoolTaskFaultsMapToStatusCodes) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  ThreadPool pool(4);
  {
    failpoint::ScopedFailpoint fp("thread_pool.task",
                                  [] { throw std::bad_alloc(); },
                                  /*skip=*/0, /*limit=*/1);
    Status status = pool.ParallelFor(64, [](size_t, int) {});
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << status.ToString();
  }
  {
    failpoint::ScopedFailpoint fp(
        "thread_pool.task", [] { throw std::runtime_error("task fault"); },
        /*skip=*/0, /*limit=*/1);
    Status status = pool.ParallelFor(64, [](size_t, int) {});
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  }
  // The pool survives injected faults for the next clean epoch.
  Status clean = pool.ParallelFor(64, [](size_t, int) {});
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST(RobustnessFallbackTest, InjectedDeadlineExpiryAtMaterializeBoundary) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  // Expire the deadline exactly at a per-component materialization
  // entry: the enumeration must surface kDeadlineExceeded, not a partial
  // repair list.
  Rng rng(7);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {4, 4, 4});
  Priority priority = RandomRankingPriority(rng, graph, 0.5);
  ExecutionContext context;
  failpoint::ScopedFailpoint fp("families.materialize", [&context] {
    context.set_deadline(ExecutionContext::Clock::now() -
                         std::chrono::milliseconds(1));
  });
  EvalOptions options;
  options.context = &context;
  auto result =
      PreferredRepairs(graph, priority, RepairFamily::kCommon, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

}  // namespace
}  // namespace prefrep
