// Randomized cancellation fuzzing for the governed enumeration stack.
//
// The contract under test: interrupting a query at an *arbitrary* poll
// boundary (CancelAfterPolls picks the n-th ShouldStop() poll, counted
// across all worker threads) yields a clean kCancelled Status — never a
// crash, deadlock, leak, or torn result — and an immediately rerun,
// uninterrupted query on a fresh context returns a bit-for-bit identical
// result to a context-free reference. Runs for all five families at
// threads 1 and 4; ASan/UBSan and TSan CI legs rerun the *Stress* tests
// with --gtest_repeat to shake out interleavings.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "relational/delta.h"
#include "repair/repair.h"
#include "server/snapshot.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

constexpr int kThreadCounts[] = {1, 4};

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

EvalOptions WithContext(int threads, ExecutionContext* context) {
  EvalOptions options;
  options.threads = threads;
  options.context = context;
  return options;
}

// ------------------------------------------- family enumeration fuzz --

TEST(CancellationFuzzTest, FamilyEnumerationCancelsCleanlyAtArbitraryPolls) {
  Rng rng(20260808);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {4, 3, 5, 4});
  Priority priority = RandomRankingPriority(rng, graph, 0.6);
  for (RepairFamily family : kAllFamilies) {
    for (int threads : kThreadCounts) {
      // Context-free reference: the result every clean rerun must match.
      auto reference = PreferredRepairs(graph, priority, family,
                                        EvalOptions{.threads = threads});
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      // Governed-but-uninterrupted run: attaching a context must not
      // change the answer, and records how many polls a full run takes.
      ExecutionContext clean;
      auto governed = PreferredRepairs(graph, priority, family,
                                       WithContext(threads, &clean));
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_EQ(*governed, *reference)
          << RepairFamilyName(family) << " threads " << threads;
      const uint64_t total_polls = clean.poll_count();
      EXPECT_GT(total_polls, 0u) << RepairFamilyName(family);

      for (int trial = 0; trial < 12; ++trial) {
        // Cut anywhere in [1, polls + slack]: past-the-end cuts must
        // complete normally, interior cuts must surface kCancelled.
        ExecutionContext context;
        context.CancelAfterPolls(rng.UniformRange(1, total_polls + 5));
        auto cut = PreferredRepairs(graph, priority, family,
                                    WithContext(threads, &context));
        if (cut.ok()) {
          EXPECT_EQ(*cut, *reference)
              << RepairFamilyName(family) << " threads " << threads;
        } else {
          EXPECT_EQ(cut.status().code(), StatusCode::kCancelled)
              << cut.status().ToString();
        }
        // Immediate rerun on a fresh context: bit-for-bit identical.
        ExecutionContext rerun_context;
        auto rerun = PreferredRepairs(graph, priority, family,
                                      WithContext(threads, &rerun_context));
        ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
        EXPECT_EQ(*rerun, *reference)
            << RepairFamilyName(family) << " threads " << threads << " trial "
            << trial;
      }
    }
  }
}

TEST(CancellationFuzzTest, PreCancelledEnumerationReturnsImmediately) {
  Rng rng(7);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {4, 4, 4});
  Priority priority = RandomDagPriority(rng, graph, 0.7);
  for (RepairFamily family : kAllFamilies) {
    for (int threads : kThreadCounts) {
      ExecutionContext context;
      context.RequestCancel();
      auto result = PreferredRepairs(graph, priority, family,
                                     WithContext(threads, &context));
      ASSERT_FALSE(result.ok()) << RepairFamilyName(family);
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    }
  }
}

// ------------------------------------------------------- CQA fuzz --

TEST(CancellationFuzzTest, CqaCancelsCleanlyAtArbitraryPolls) {
  Rng rng(314159);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 5, 3, 4});
  RepairProblem problem = MustProblem(inst);
  Priority priority = RandomRankingPriority(rng, problem.graph(), 0.5);
  std::unique_ptr<Query> closed = MustParse("exists x . R(0, x, 1)");
  std::unique_ptr<Query> open = MustParse("R(0, v, w)");
  // Its own stream, so the verdict and answer cuts draw what they did
  // before aggregate cuts were added.
  Rng aggregate_rng(271);

  for (RepairFamily family : kAllFamilies) {
    for (int threads : kThreadCounts) {
      EvalOptions aggregate_options{.threads = threads,
                                    .force_tier = CqaTier::kEnumeration};
      auto ref_range =
          PlannedAggregateRange(problem, priority, family, "R", "W",
                                AggregateFunction::kSum, aggregate_options);
      ASSERT_TRUE(ref_range.ok()) << ref_range.status().ToString();
      ExecutionContext aggregate_clean;
      aggregate_options.context = &aggregate_clean;
      ASSERT_TRUE(PlannedAggregateRange(problem, priority, family, "R", "W",
                                        AggregateFunction::kSum,
                                        aggregate_options)
                      .ok());
      const uint64_t range_polls = aggregate_clean.poll_count();

      auto ref_verdict =
          PlannedConsistentAnswer(problem, priority, family, *closed,
                                  EvalOptions{.threads = threads});
      ASSERT_TRUE(ref_verdict.ok()) << ref_verdict.status().ToString();
      auto ref_rows = PlannedConsistentAnswers(problem, priority, family,
                                               *open,
                                               EvalOptions{.threads = threads});
      ASSERT_TRUE(ref_rows.ok()) << ref_rows.status().ToString();

      ExecutionContext clean;
      auto governed = PlannedConsistentAnswer(
          problem, priority, family, *closed, WithContext(threads, &clean));
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_EQ(*governed, *ref_verdict);
      const uint64_t verdict_polls = clean.poll_count();

      for (int trial = 0; trial < 8; ++trial) {
        ExecutionContext context;
        context.CancelAfterPolls(rng.UniformRange(1, verdict_polls + 5));
        auto cut = PlannedConsistentAnswer(
            problem, priority, family, *closed, WithContext(threads, &context));
        if (cut.ok()) {
          EXPECT_EQ(*cut, *ref_verdict) << RepairFamilyName(family);
        } else {
          EXPECT_EQ(cut.status().code(), StatusCode::kCancelled)
              << cut.status().ToString();
        }

        ExecutionContext rows_context;
        rows_context.CancelAfterPolls(rng.UniformRange(1, verdict_polls + 5));
        auto cut_rows = PlannedConsistentAnswers(
            problem, priority, family, *open,
            WithContext(threads, &rows_context));
        if (cut_rows.ok()) {
          EXPECT_EQ(cut_rows->rows, ref_rows->rows)
              << RepairFamilyName(family);
        } else {
          EXPECT_EQ(cut_rows.status().code(), StatusCode::kCancelled)
              << cut_rows.status().ToString();
        }

        // A range over a prefix of the repairs would be too narrow: the
        // cut either completes with the reference range or is cancelled.
        ExecutionContext range_context;
        range_context.CancelAfterPolls(
            aggregate_rng.UniformRange(1, range_polls + 5));
        aggregate_options.context = &range_context;
        auto cut_range =
            PlannedAggregateRange(problem, priority, family, "R", "W",
                                  AggregateFunction::kSum, aggregate_options);
        if (cut_range.ok()) {
          EXPECT_EQ(cut_range->has_value, ref_range->has_value);
          EXPECT_EQ(cut_range->empty_possible, ref_range->empty_possible);
          EXPECT_EQ(cut_range->lo, ref_range->lo) << RepairFamilyName(family);
          EXPECT_EQ(cut_range->hi, ref_range->hi) << RepairFamilyName(family);
        } else {
          EXPECT_EQ(cut_range.status().code(), StatusCode::kCancelled)
              << cut_range.status().ToString();
        }

        // Clean rerun after each interrupted attempt.
        ExecutionContext rerun_context;
        auto rerun = PlannedConsistentAnswer(
            problem, priority, family, *closed,
            WithContext(threads, &rerun_context));
        ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
        EXPECT_EQ(*rerun, *ref_verdict)
            << RepairFamilyName(family) << " threads " << threads;
      }
    }
  }
}

// --------------------------------------------------- deadline fuzz --

TEST(CancellationFuzzTest, ExpiredDeadlineSurfacesDeadlineExceeded) {
  Rng rng(11);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {4, 4, 4});
  Priority priority = RandomRankingPriority(rng, graph, 0.5);
  for (RepairFamily family : kAllFamilies) {
    for (int threads : kThreadCounts) {
      ExecutionContext context;
      context.set_deadline(ExecutionContext::Clock::now() -
                           std::chrono::milliseconds(1));
      auto result = PreferredRepairs(graph, priority, family,
                                     WithContext(threads, &context));
      ASSERT_FALSE(result.ok()) << RepairFamilyName(family);
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status().ToString();
    }
  }
}

TEST(CancellationFuzzTest, TightDeadlineEitherCompletesOrExpiresCleanly) {
  Rng rng(12);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 4, 4});
  RepairProblem problem = MustProblem(inst);
  Priority priority = RandomDagPriority(rng, problem.graph(), 0.6);
  std::unique_ptr<Query> query = MustParse("exists x . R(0, x, 0)");
  auto reference = PlannedConsistentAnswer(problem, priority,
                                           RepairFamily::kGlobal, *query);
  ASSERT_TRUE(reference.ok());
  for (int trial = 0; trial < 10; ++trial) {
    ExecutionContext context;
    context.SetDeadlineAfter(std::chrono::microseconds(
        rng.UniformRange(1, 2000)));
    auto result =
        PlannedConsistentAnswer(problem, priority, RepairFamily::kGlobal,
                                *query, WithContext(4, &context));
    if (result.ok()) {
      EXPECT_EQ(*result, *reference);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status().ToString();
    }
  }
}

// ------------------------------------------------------------ stress --

// Rerun under TSan with --gtest_repeat: a real second thread fires the
// cancel while four workers enumerate, maximizing the interleavings the
// latch and the pool's epoch teardown must survive.
TEST(CancellationFuzzStressTest, StressAsyncCancelDuringShardedCqa) {
  Rng rng(424242);
  GeneratedInstance inst = MakeComponentsInstance(rng, {5, 6, 5, 4, 5});
  RepairProblem problem = MustProblem(inst);
  Priority priority = RandomRankingPriority(rng, problem.graph(), 0.5);
  std::unique_ptr<Query> query = MustParse("exists x, y . R(1, x, y)");
  auto reference = PlannedConsistentAnswer(problem, priority,
                                           RepairFamily::kAll, *query,
                                           EvalOptions{.threads = 4});
  ASSERT_TRUE(reference.ok());
  for (int trial = 0; trial < 5; ++trial) {
    ExecutionContext context;
    std::thread canceller([&context] {
      // No sleep: racing the very start of the query is the interesting
      // interleaving, and TSan repeats vary the timing.
      context.RequestCancel();
    });
    auto result =
        PlannedConsistentAnswer(problem, priority, RepairFamily::kAll,
                                *query, WithContext(4, &context));
    canceller.join();
    if (result.ok()) {
      EXPECT_EQ(*result, *reference);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << result.status().ToString();
    }
    // Clean rerun on a fresh context is unaffected by the cancelled one.
    ExecutionContext rerun_context;
    auto rerun =
        PlannedConsistentAnswer(problem, priority, RepairFamily::kAll,
                                *query, WithContext(4, &rerun_context));
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(*rerun, *reference);
  }
}

TEST(CancellationFuzzStressTest, StressRandomCutsAcrossFamiliesParallel) {
  Rng rng(999331);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {6, 5, 6, 5});
  Priority priority = RandomDagPriority(rng, graph, 0.6);
  for (RepairFamily family : kAllFamilies) {
    ExecutionContext clean;
    auto reference =
        PreferredRepairs(graph, priority, family, WithContext(4, &clean));
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const uint64_t total_polls = clean.poll_count();
    for (int trial = 0; trial < 6; ++trial) {
      ExecutionContext context;
      context.CancelAfterPolls(rng.UniformRange(1, total_polls + 2));
      auto cut =
          PreferredRepairs(graph, priority, family, WithContext(4, &context));
      if (cut.ok()) {
        EXPECT_EQ(*cut, *reference) << RepairFamilyName(family);
      } else {
        EXPECT_EQ(cut.status().code(), StatusCode::kCancelled)
            << cut.status().ToString();
      }
    }
  }
}

// ------------------------------------------------ snapshot-derive fuzz --

// Derive must honor the same contract as the enumeration stack: a cut at
// any poll boundary yields a clean kCancelled, the parent snapshot is
// untouched, no partial successor escapes, and an uninterrupted rerun is
// bit-for-bit identical to a from-scratch rebuild.
TEST(CancellationFuzzTest, SnapshotDeriveCancelsCleanlyAtArbitraryPolls) {
  Rng rng(908070);
  GeneratedInstance inst = MakeComponentsInstance(rng, {6, 5, 4, 3, 2});
  auto base = Snapshot::Create(*inst.db, inst.fds);
  ASSERT_TRUE(base.ok());
  const std::string base_before = (*base)->Describe();

  DatabaseDelta delta(&(*base)->db());
  for (TupleId id = 0; id < (*base)->db().tuple_count(); ++id) {
    if (rng.UniformDouble() < 0.3) CHECK(delta.Delete(id).ok());
  }
  for (int i = 0; i < 6; ++i) {
    (void)delta.Insert("R", Tuple::Of(Value::Number(rng.UniformInt(6)),
                                      Value::Number(rng.UniformInt(6)),
                                      Value::Number(rng.UniformInt(20))));
  }
  auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), (*base)->fds());
  ASSERT_TRUE(rebuilt.ok());

  // Governed-but-uninterrupted run records the poll budget.
  ExecutionContext clean;
  auto governed = Snapshot::Derive(*base, delta, &clean);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  const uint64_t total_polls = clean.poll_count();
  EXPECT_GT(total_polls, 0u);

  auto same_as_rebuilt = [&](const Snapshot& got) {
    EXPECT_EQ(got.graph().edges(), (*rebuilt)->graph().edges());
    ASSERT_EQ(got.decomposition().components().size(),
              (*rebuilt)->decomposition().components().size());
    for (size_t c = 0; c < got.decomposition().components().size(); ++c) {
      EXPECT_EQ(got.decomposition().components()[c].vertices,
                (*rebuilt)->decomposition().components()[c].vertices);
    }
    EXPECT_TRUE(got.decomposition().isolated() ==
                (*rebuilt)->decomposition().isolated());
  };
  same_as_rebuilt(**governed);

  for (int trial = 0; trial < 16; ++trial) {
    ExecutionContext context;
    context.CancelAfterPolls(rng.UniformRange(1, total_polls + 3));
    auto cut = Snapshot::Derive(*base, delta, &context);
    if (cut.ok()) {
      same_as_rebuilt(**cut);
    } else {
      EXPECT_EQ(cut.status().code(), StatusCode::kCancelled)
          << cut.status().ToString();
    }
    EXPECT_EQ((*base)->Describe(), base_before);  // parent untouched
    // Immediate clean rerun: identical to the rebuild.
    auto rerun = Snapshot::Derive(*base, delta);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    same_as_rebuilt(**rerun);
  }
}

}  // namespace
}  // namespace prefrep
