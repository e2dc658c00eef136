// The headline evidence for sharded per-component enumeration: on
// randomized multi-component instances, the parallel paths (threads in
// {2, 4, 8}) produce results *exactly* equal to the serial reference —
// the same repair sequence (not just the same multiset: per-component
// lists merge in component order and the product odometer runs on the
// calling thread, so even emission order is pinned), the same CQA
// verdicts and certain-answer sets for quantifier-free, conjunctive and
// global queries, the same aggregate ranges, and the same early-stop /
// ResourceExhausted behavior.
//
// The *Stress* tests are additionally run many times under the TSan CI
// job (--gtest_repeat) to shake out scheduling-dependent interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/failpoint.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "graph/mis.h"
#include "query/parser.h"
#include "relational/delta.h"
#include "repair/repair.h"
#include "server/snapshot.h"
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

// The listed family in PreferredRepairs order, which must not depend on
// options.threads.
EnumerationRun RunFamily(const ConflictGraph& graph, const Priority& priority,
                         RepairFamily family, const EvalOptions& options) {
  EnumerationRun run;
  auto repairs = PreferredRepairs(graph, priority, family, options);
  run.complete = repairs.ok();
  if (!repairs.ok()) return run;
  for (const DynamicBitset& repair : *repairs) {
    run.sequence.push_back(repair.ToVector());
  }
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
          RunFamily(graph, priority, family, EvalOptions{.threads = 1});
      EXPECT_TRUE(serial.complete);
      for (int threads : kThreadCounts) {
        EnumerationRun parallel =
            RunFamily(graph, priority, family, EvalOptions{.threads = threads});
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
    auto serial = PreferredRepairs(graph, Priority(), RepairFamily::kAll);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(BigUint(serial->size()).ToString(),
              CountMaximalIndependentSets(graph).ToString());
    for (int threads : kThreadCounts) {
      EvalOptions options;
      options.threads = threads;
      auto parallel =
          PreferredRepairs(graph, Priority(), RepairFamily::kAll, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*parallel, *serial) << "trial " << trial << " threads "
                                    << threads;
    }
  }
  // Rep reads no priority: a default-constructed Priority yields exactly
  // the sequence Priority::Empty does, on every graph shape — serially, at
  // threads = 4, and under a 1-byte budget (the streaming fallback).
  const ConflictGraph shapes[] = {
      MakeComponentPathsGraph(rng, {7}),           // connected
      MakeComponentPathsGraph(rng, {1, 1, 1}),     // isolated tuples only
      MakeComponentPathsGraph(rng, {1, 6, 1}),     // one component
      MakeComponentPathsGraph(rng, {3, 1, 4, 5}),  // many components
  };
  ExecutionLimits tiny;
  tiny.component_list_budget_bytes = 1;
  for (const ConflictGraph& graph : shapes) {
    Priority empty = Priority::Empty(graph);
    for (int mode = 0; mode < 3; ++mode) {
      ExecutionContext context(tiny);
      EvalOptions options{.threads = mode == 1 ? 4 : 1};
      if (mode == 2) options.context = &context;
      EnumerationRun with_default =
          RunFamily(graph, Priority(), RepairFamily::kAll, options);
      EnumerationRun with_empty =
          RunFamily(graph, empty, RepairFamily::kAll, options);
      EXPECT_TRUE(with_default.complete);
      EXPECT_EQ(with_default.complete, with_empty.complete);
      EXPECT_EQ(with_default.sequence, with_empty.sequence)
          << graph.vertex_count() << " vertices, mode " << mode;
      EXPECT_EQ(BigUint(with_default.sequence.size()).ToString(),
                CountMaximalIndependentSets(graph).ToString());
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

constexpr AggregateFunction kAggregateFunctions[] = {
    AggregateFunction::kMin, AggregateFunction::kMax, AggregateFunction::kSum,
    AggregateFunction::kCount, AggregateFunction::kAvg};

// Forced enumeration: COUNT would otherwise plan the polynomial range.
EvalOptions EnumerateOn(int threads) {
  return EvalOptions{.threads = threads, .force_tier = CqaTier::kEnumeration};
}

void ExpectSameRange(const AggregateRange& parallel,
                     const AggregateRange& serial, const std::string& what) {
  EXPECT_EQ(parallel.has_value, serial.has_value) << what;
  EXPECT_EQ(parallel.empty_possible, serial.empty_possible) << what;
  EXPECT_EQ(parallel.lo, serial.lo) << what;
  EXPECT_EQ(parallel.hi, serial.hi) << what;
}

TEST(ParallelEnumerationTest, AggregateRangesMatchSerialOnRandomInstances) {
  Rng rng(161803);
  for (int trial = 0; trial < 40; ++trial) {
    GeneratedInstance inst = MakeComponentsInstance(
        rng, static_cast<int>(rng.UniformRange(2, 4)), 1, 5);
    RepairProblem problem = MustProblem(inst);
    Priority priority = RandomPriority(rng, problem.graph(), trial);
    for (RepairFamily family : kAllFamilies) {
      for (AggregateFunction fn : kAggregateFunctions) {
        auto serial = PlannedAggregateRange(problem, priority, family, "R",
                                            "V", fn, EnumerateOn(1));
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        for (int threads : kThreadCounts) {
          auto parallel = PlannedAggregateRange(problem, priority, family, "R",
                                                "V", fn, EnumerateOn(threads));
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
          ExpectSameRange(*parallel, *serial,
                          std::string(RepairFamilyName(family)) + " " +
                              std::string(AggregateFunctionName(fn)) +
                              " trial " + std::to_string(trial) +
                              " threads " + std::to_string(threads));
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

TEST(ParallelEnumerationTest, SingleComponentWalkStreamsAtEveryThreadCount) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  // One 12-vertex path between two isolated vertices: the walk streams the
  // one component in place, with early stop, at every thread count rather
  // than materializing its list first. G-Rep materializes the
  // component's list by design — its certificate compares against it —
  // and the visited repairs match threads = 1 either way.
  Rng rng(1612);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {1, 12, 1});
  Priority priority = RandomRankingPriority(rng, graph, 0.6);
  for (RepairFamily family : kAllFamilies) {
    std::vector<uint64_t> visited;
    for (int threads : {1, 4}) {
      failpoint::ScopedFailpoint fp("families.materialize", [] {});
      std::atomic<uint64_t> count{0};
      Status walked = ForEachPreferredRepair(
          graph, priority, family, EvalOptions{.threads = threads},
          [&count](int /*worker*/, const DynamicBitset&) {
            count.fetch_add(1, std::memory_order_relaxed);
            return true;
          });
      ASSERT_TRUE(walked.ok()) << walked.ToString();
      EXPECT_EQ(fp.hit_count(), family == RepairFamily::kGlobal ? 1u : 0u)
          << RepairFamilyName(family) << " threads " << threads;
      visited.push_back(count.load());
    }
    EXPECT_GT(visited[0], 0u);
    EXPECT_EQ(visited[1], visited[0]) << RepairFamilyName(family);
  }
}

// ------------------------------------ early stop / limit propagation --

TEST(ParallelEnumerationTest, EarlyStopPropagatesAtEveryThreadCount) {
  Rng rng(5);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {3, 3, 3, 3});
  Priority empty = Priority::Empty(graph);
  for (RepairFamily family : kAllFamilies) {
    for (int threads : {1, 2, 4, 8}) {
      // The walk admits exactly 7 of the 16 repairs: every visit after the
      // 7th returns false. The worker that stops the walk makes no further
      // visit, and each other worker at most the one it is in when the
      // stop lands, so serially exactly 7 visits happen.
      std::mutex mu;
      int seen = 0;
      int visits = 0;
      Status walked = ForEachPreferredRepair(
          graph, empty, family, EvalOptions{.threads = threads},
          [&](int /*worker*/, const DynamicBitset&) {
            std::lock_guard<std::mutex> lock(mu);
            ++visits;
            if (seen < 7) ++seen;
            return seen < 7;
          });
      ASSERT_TRUE(walked.ok()) << walked.ToString();
      EXPECT_EQ(seen, 7) << RepairFamilyName(family);
      EXPECT_GE(visits, 7) << RepairFamilyName(family);
      EXPECT_LE(visits, 6 + threads)
          << RepairFamilyName(family) << " threads " << threads;
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
// sharded CQA walk (verdicts, certain answers and aggregate ranges).
TEST(ParallelEnumerationStressTest, StressShardedEnumerationAndCqa) {
  Rng rng(13);
  ConflictGraph graph = MakeComponentPathsGraph(rng, {8, 7, 9, 6, 8, 7});
  Priority priority = RandomRankingPriority(rng, graph, 0.5);
  for (RepairFamily family :
       {RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kCommon}) {
    EnumerationRun serial =
        RunFamily(graph, priority, family, EvalOptions{.threads = 1});
    EnumerationRun parallel =
        RunFamily(graph, priority, family, EvalOptions{.threads = 8});
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

    for (AggregateFunction fn :
         {AggregateFunction::kSum, AggregateFunction::kMin}) {
      auto serial_range = PlannedAggregateRange(
          problem, cqa_priority, family, "R", "W", fn, EnumerateOn(1));
      auto parallel_range = PlannedAggregateRange(
          problem, cqa_priority, family, "R", "W", fn, EnumerateOn(8));
      ASSERT_TRUE(serial_range.ok());
      ASSERT_TRUE(parallel_range.ok());
      ExpectSameRange(*parallel_range, *serial_range,
                      std::string(RepairFamilyName(family)) + " " +
                          std::string(AggregateFunctionName(fn)));
    }
  }
}

// Four threads (no more) make the first decomposition() call on one graph
// at once, then walk it: on a graph nothing has decomposed yet and on a
// freshly derived snapshot's graph, whose decomposition Derive installed.
// Every thread must read the same decomposition object and list the same
// sequence as a graph decomposed on one thread.
TEST(ParallelEnumerationStressTest, StressFirstDecompositionCall) {
  constexpr int kRacers = 4;
  Rng rng(1919);
  GeneratedInstance inst = MakeComponentsInstance(rng, {5, 1, 4, 6, 3, 5});
  auto base = Snapshot::Create(*inst.db, inst.fds);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  DatabaseDelta delta(&(*base)->db());
  ASSERT_TRUE(delta.Delete(0).ok());
  auto derived = Snapshot::Derive(*base, delta);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  const ConflictGraph& derived_graph = (*derived)->graph();
  const ConflictGraph fresh(derived_graph.vertex_count(),
                            derived_graph.edges());
  const ConflictGraph reference(derived_graph.vertex_count(),
                                derived_graph.edges());
  Priority priority = RandomRankingPriority(rng, reference, 0.6);
  for (RepairFamily family : kAllFamilies) {
    auto expected = PreferredRepairs(reference, priority, family);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const ConflictGraph* graph : {&fresh, &derived_graph}) {
      std::atomic<int> arrived{0};
      std::vector<const ComponentDecomposition*> seen(kRacers);
      std::vector<std::vector<DynamicBitset>> walked(kRacers);
      std::vector<std::thread> racers;
      for (int t = 0; t < kRacers; ++t) {
        racers.emplace_back([&, t] {
          arrived.fetch_add(1);
          while (arrived.load() < kRacers) std::this_thread::yield();
          seen[t] = &graph->decomposition();
          auto repairs = PreferredRepairs(*graph, priority, family);
          if (repairs.ok()) walked[t] = *std::move(repairs);
        });
      }
      for (std::thread& racer : racers) racer.join();
      for (int t = 0; t < kRacers; ++t) {
        EXPECT_EQ(seen[t], seen[0]) << "racer " << t;
        EXPECT_EQ(walked[t], *expected)
            << RepairFamilyName(family) << " racer " << t;
      }
    }
  }
  EXPECT_EQ(&derived_graph.decomposition(), &(*derived)->decomposition());
}

}  // namespace
}  // namespace prefrep
