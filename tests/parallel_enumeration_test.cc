// The headline evidence for sharded per-component enumeration: on
// randomized multi-component instances, the parallel paths (threads in
// {2, 4, 8}) produce results *exactly* equal to the serial reference —
// the same repair sequence (not just the same multiset: per-component
// lists merge in component order and the product odometer runs on the
// calling thread, so even emission order is pinned), the same CQA
// verdicts and certain-answer sets for quantifier-free, conjunctive and
// global queries, and the same early-stop / ResourceExhausted behavior.
//
// The *Stress* tests are additionally run many times under the TSan CI
// job (--gtest_repeat) to shake out scheduling-dependent interleavings.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "base/random.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "graph/mis.h"
#include "query/parser.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

constexpr int kThreadCounts[] = {2, 4, 8};

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

struct EnumerationRun {
  std::vector<std::vector<int>> sequence;
  bool complete = false;
};

EnumerationRun RunFamily(const ConflictGraph& graph, const Priority& priority,
                         RepairFamily family, const ParallelOptions& options) {
  EnumerationRun run;
  run.complete = EnumeratePreferredRepairs(
      graph, priority, family, options, [&run](const DynamicBitset& repair) {
        run.sequence.push_back(repair.ToVector());
        return true;
      });
  return run;
}

Priority RandomPriority(Rng& rng, const ConflictGraph& graph, int trial) {
  return trial % 2 == 0 ? RandomRankingPriority(rng, graph, 0.6)
                        : RandomDagPriority(rng, graph, 0.7);
}

// --------------------------------------------- family enumeration --

TEST(ParallelEnumerationTest, FamiliesMatchSerialExactlyOnRandomInstances) {
  Rng rng(20260729);
  for (int trial = 0; trial < 40; ++trial) {
    // Alternate between path components (exponential repair spaces) and
    // database-backed multipartite components; sizes include 1 so
    // isolated vertices are always in play.
    ConflictGraph graph(0, {});
    GeneratedInstance inst;  // must outlive problem/graph when used
    if (trial % 2 == 0) {
      std::vector<int> sizes;
      int components = static_cast<int>(rng.UniformRange(2, 4));
      for (int c = 0; c < components; ++c) {
        sizes.push_back(static_cast<int>(rng.UniformRange(1, 6)));
      }
      graph = MakeComponentPathsGraph(rng, sizes);
    } else {
      inst = MakeComponentsInstance(
          rng, static_cast<int>(rng.UniformRange(2, 4)), 1, 5);
      RepairProblem problem = MustProblem(inst);
      graph = problem.graph();
    }
    Priority priority = RandomPriority(rng, graph, trial);
    for (RepairFamily family : kAllFamilies) {
      EnumerationRun serial =
          RunFamily(graph, priority, family, ParallelOptions{1});
      EXPECT_TRUE(serial.complete);
      for (int threads : kThreadCounts) {
        EnumerationRun parallel =
            RunFamily(graph, priority, family, ParallelOptions{threads});
        EXPECT_EQ(parallel.complete, serial.complete);
        EXPECT_EQ(parallel.sequence, serial.sequence)
            << RepairFamilyName(family) << " trial " << trial << " threads "
            << threads;
      }
    }
  }
}

TEST(ParallelEnumerationTest, MisEnumerationMatchesSerial) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> sizes;
    int components = static_cast<int>(rng.UniformRange(2, 5));
    for (int c = 0; c < components; ++c) {
      sizes.push_back(static_cast<int>(rng.UniformRange(1, 7)));
    }
    ConflictGraph graph = MakeComponentPathsGraph(rng, sizes);
    auto serial = AllMaximalIndependentSets(graph);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(BigUint(serial->size()).ToString(),
              CountMaximalIndependentSets(graph).ToString());
    for (int threads : kThreadCounts) {
      auto parallel =
          AllMaximalIndependentSets(graph, ParallelOptions{threads});
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*parallel, *serial) << "trial " << trial << " threads "
                                    << threads;
    }
  }
}

// ------------------------------------------------------------- CQA --

TEST(ParallelEnumerationTest, CqaVerdictsMatchSerialOnRandomInstances) {
  Rng rng(4711);
  for (int trial = 0; trial < 40; ++trial) {
    GeneratedInstance inst = MakeComponentsInstance(
        rng, static_cast<int>(rng.UniformRange(2, 4)), 1, 5);
    RepairProblem problem = MustProblem(inst);
    Priority priority = RandomPriority(rng, problem.graph(), trial);

    // A ground quantifier-free query over an existing (possibly
    // conflicting) tuple, a negated variant, and a conjunctive
    // (existential) query — the three Fig. 5 query classes the CQA
    // engines serve.
    const Relation& rel = *inst.db->relation("R").value();
    ASSERT_GT(rel.size(), 0u);
    const Tuple& t =
        rel.tuple(static_cast<int>(rng.UniformInt(rel.size())));
    std::vector<Term> terms;
    for (const Value& v : t.values()) terms.push_back(Term::Const(v));
    std::vector<std::unique_ptr<Query>> queries;
    queries.push_back(Query::Atom("R", std::move(terms)));
    queries.push_back(Query::Not(queries[0]->Clone()));
    queries.push_back(MustParse("exists x . R(0, x, 0)"));
    queries.push_back(MustParse("exists x, y . R(1, x, y) and x < 2"));

    for (RepairFamily family : kAllFamilies) {
      for (const std::unique_ptr<Query>& query : queries) {
        auto serial =
            PlannedConsistentAnswer(problem, priority, family, *query);
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        for (int threads : kThreadCounts) {
          auto parallel =
              PlannedConsistentAnswer(problem, priority, family, *query,
                                      EvalOptions{.threads = threads});
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
          EXPECT_EQ(*parallel, *serial)
              << RepairFamilyName(family) << " trial " << trial << " threads "
              << threads << " query " << query->ToString();
        }
      }
    }
  }
}

TEST(ParallelEnumerationTest, CqaOpenAnswersMatchSerialOnRandomInstances) {
  Rng rng(271828);
  for (int trial = 0; trial < 40; ++trial) {
    GeneratedInstance inst = MakeComponentsInstance(
        rng, static_cast<int>(rng.UniformRange(2, 4)), 1, 5);
    RepairProblem problem = MustProblem(inst);
    Priority priority = RandomPriority(rng, problem.graph(), trial);
    // Open queries: a free-variable atom (quantifier-free) and a
    // conjunctive query with one quantified and one free variable.
    std::vector<std::unique_ptr<Query>> queries;
    queries.push_back(MustParse("R(0, x, y)"));
    queries.push_back(MustParse("exists w . R(k, 0, w)"));
    for (RepairFamily family : kAllFamilies) {
      for (const std::unique_ptr<Query>& query : queries) {
        auto serial =
            PlannedConsistentAnswers(problem, priority, family, *query);
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        for (int threads : kThreadCounts) {
          auto parallel =
              PlannedConsistentAnswers(problem, priority, family, *query,
                                       EvalOptions{.threads = threads});
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
          EXPECT_EQ(parallel->variables, serial->variables);
          EXPECT_EQ(parallel->rows, serial->rows)
              << RepairFamilyName(family) << " trial " << trial << " threads "
              << threads << " query " << query->ToString();
        }
      }
    }
  }
}

TEST(ParallelEnumerationTest, CqaOnConnectedInstanceMatchesSerial) {
  // A single-group instance has a connected conflict graph: threads > 1
  // must take the serial streaming path (materializing the one component's
  // list up front could cost unboundedly more than an early-stopping
  // serial scan) and the results must be identical either way.
  Rng rng(31337);
  GeneratedInstance inst = MakeComponentsInstance(rng, {6});
  RepairProblem problem = MustProblem(inst);
  Priority priority = RandomRankingPriority(rng, problem.graph(), 0.5);
  std::unique_ptr<Query> closed = MustParse("exists x . R(0, x, 1)");
  std::unique_ptr<Query> open = MustParse("R(0, v, w)");
  for (RepairFamily family : kAllFamilies) {
    auto serial_verdict =
        PlannedConsistentAnswer(problem, priority, family, *closed);
    ASSERT_TRUE(serial_verdict.ok());
    auto serial_rows =
        PlannedConsistentAnswers(problem, priority, family, *open);
    ASSERT_TRUE(serial_rows.ok());
    for (int threads : kThreadCounts) {
      auto verdict = PlannedConsistentAnswer(problem, priority, family,
                                             *closed,
                                             EvalOptions{.threads = threads});
      ASSERT_TRUE(verdict.ok());
      EXPECT_EQ(*verdict, *serial_verdict) << RepairFamilyName(family);
      auto rows = PlannedConsistentAnswers(problem, priority, family, *open,
                                           EvalOptions{.threads = threads});
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows->rows, serial_rows->rows) << RepairFamilyName(family);
    }
  }
}

// ------------------------------------ early stop / limit propagation --

TEST(ParallelEnumerationTest, EarlyStopPropagatesAtEveryThreadCount) {
  Rng rng(5);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {3, 3, 3, 3});
  Priority empty = Priority::Empty(graph);
  for (RepairFamily family : kAllFamilies) {
    for (int threads : kThreadCounts) {
      int seen = 0;
      bool complete = EnumeratePreferredRepairs(
          graph, empty, family, ParallelOptions{threads},
          [&seen](const DynamicBitset&) { return ++seen < 7; });
      EXPECT_FALSE(complete) << RepairFamilyName(family);
      EXPECT_EQ(seen, 7) << RepairFamilyName(family);
    }
  }
}

TEST(ParallelEnumerationTest, LimitPropagatesAsResourceExhausted) {
  Rng rng(6);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {4, 4, 4, 4});
  Priority empty = Priority::Empty(graph);
  auto serial = PreferredRepairs(graph, empty, RepairFamily::kAll);
  ASSERT_TRUE(serial.ok());
  for (RepairFamily family : kAllFamilies) {
    for (int threads : kThreadCounts) {
      EvalOptions capped{.threads = threads};
      capped.limits.max_repair_list = 5;
      auto limited = PreferredRepairs(graph, empty, family, capped);
      ASSERT_FALSE(limited.ok()) << RepairFamilyName(family);
      EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
      EvalOptions uncapped{.threads = threads};
      uncapped.limits.max_repair_list = 1u << 20;
      auto full = PreferredRepairs(graph, empty, family, uncapped);
      ASSERT_TRUE(full.ok()) << RepairFamilyName(family);
      EXPECT_EQ(full->size(), serial->size()) << RepairFamilyName(family);
    }
  }
}

// ------------------------------------------------------------ stress --

// Rerun many times under TSan in CI (--gtest_filter='*Stress*'
// --gtest_repeat=N): a fixed seed with larger components and threads=8
// maximizes cross-thread interleavings in materialization and in the
// sharded CQA eval loop.
TEST(ParallelEnumerationStressTest, StressShardedEnumerationAndCqa) {
  Rng rng(13);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {8, 7, 9, 6, 8, 7});
  Priority priority = RandomRankingPriority(rng, graph, 0.5);
  for (RepairFamily family :
       {RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kCommon}) {
    EnumerationRun serial =
        RunFamily(graph, priority, family, ParallelOptions{1});
    EnumerationRun parallel =
        RunFamily(graph, priority, family, ParallelOptions{8});
    ASSERT_EQ(parallel.sequence, serial.sequence) << RepairFamilyName(family);
  }

  GeneratedInstance inst = MakeComponentsInstance(rng, {5, 6, 4, 5, 6, 1});
  RepairProblem problem = MustProblem(inst);
  Priority cqa_priority = RandomDagPriority(rng, problem.graph(), 0.6);
  std::unique_ptr<Query> closed = MustParse("exists x . R(2, x, 1)");
  std::unique_ptr<Query> open = MustParse("R(k, v, 0)");
  for (RepairFamily family : {RepairFamily::kAll, RepairFamily::kLocal,
                              RepairFamily::kGlobal}) {
    auto serial_verdict =
        PlannedConsistentAnswer(problem, cqa_priority, family, *closed);
    auto parallel_verdict = PlannedConsistentAnswer(
        problem, cqa_priority, family, *closed, EvalOptions{.threads = 8});
    ASSERT_TRUE(serial_verdict.ok());
    ASSERT_TRUE(parallel_verdict.ok());
    EXPECT_EQ(*parallel_verdict, *serial_verdict) << RepairFamilyName(family);

    auto serial_rows =
        PlannedConsistentAnswers(problem, cqa_priority, family, *open);
    auto parallel_rows = PlannedConsistentAnswers(
        problem, cqa_priority, family, *open, EvalOptions{.threads = 8});
    ASSERT_TRUE(serial_rows.ok());
    ASSERT_TRUE(parallel_rows.ok());
    EXPECT_EQ(parallel_rows->rows, serial_rows->rows)
        << RepairFamilyName(family);
  }
}

}  // namespace
}  // namespace prefrep
