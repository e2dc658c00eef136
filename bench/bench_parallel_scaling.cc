// Thread-scaling sweep for sharded per-component enumeration and CQA.
//
// Workloads are multi-component by construction (workload/generators.h):
//   - family rows: 8 disjoint conflict paths, whose per-component repair
//     lists are Fibonacci-sized — materialization dominates, which is
//     exactly the layer the pool parallelizes. The callback stops at the
//     first product output, so the measured cost is the sharded
//     materialization, not the (serial, unbounded) product streaming.
//   - CQA rows: complete-multipartite components with small per-component
//     lists but a large repair product — the sharded per-repair eval loop
//     dominates. Queries are chosen to be certainly-true so no early stop
//     hides the full scan.
//
// threads=1 takes the serial path (no pool, no atomics on the hot loop);
// rows at 2/4/8 threads measure the same work on the work-stealing pool.
// NOTE: speedup requires physical cores; on a single-core host all
// thread counts collapse to serial time plus pool overhead.

#include "bench_common.h"

#include <atomic>

#include "base/thread_pool.h"
#include "graph/conflict_graph.h"

namespace prefrep::bench {
namespace {

constexpr int64_t kPathComponents = 8;
// A path of n vertices has ~1.3247^n maximal independent sets (the
// plastic-number recurrence M(n) = M(n-2) + M(n-3)): length 32 puts
// ~10k repairs in every component list, so materialization dominates
// the fixed decomposition cost while one serial iteration stays well
// under a second (bench-smoke runs every row at least once).
constexpr int64_t kPathLength = 32;
constexpr int64_t kGlobalPathLength = 24;  // G-Rep certifies quadratically

struct GraphWorkload {
  ConflictGraph graph;
  Priority priority;
};

GraphWorkload MakePathsWorkload(int64_t length) {
  Rng rng(42);
  std::vector<int> sizes(kPathComponents, static_cast<int>(length));
  ConflictGraph graph = MakeComponentPathsGraph(rng, sizes);
  Priority priority = RandomRankingPriority(rng, graph, 0.5);
  return GraphWorkload{std::move(graph), std::move(priority)};
}

void RunFamilyScaling(benchmark::State& state, RepairFamily family,
                      int64_t length) {
  GraphWorkload workload = MakePathsWorkload(length);
  EvalOptions options{.threads = static_cast<int>(state.range(0))};
  for (auto _ : state) {
    std::atomic<int> outputs{0};
    Status walked = ForEachPreferredRepair(
        workload.graph, workload.priority, family, options,
        [&outputs](int /*worker*/, const DynamicBitset&) {
          outputs.fetch_add(1, std::memory_order_relaxed);
          return false;  // stop at the first product output: the
                         // per-component materialization has completed
        });
    CHECK(walked.ok()) << walked.ToString();
    // Each walker may emit the first repair of its box before the stop.
    int emitted = outputs.load();
    CHECK(emitted >= 1 && emitted <= options.threads);
    KeepAlive(emitted);
  }
  state.SetLabel(std::string(RepairFamilyName(family)) + " on " +
                 std::to_string(kPathComponents) + " paths of " +
                 std::to_string(length));
}

void BM_ParallelScaling_Rep(benchmark::State& state) {
  RunFamilyScaling(state, RepairFamily::kAll, kPathLength);
}
BENCHMARK(BM_ParallelScaling_Rep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelScaling_LRep(benchmark::State& state) {
  RunFamilyScaling(state, RepairFamily::kLocal, kPathLength);
}
BENCHMARK(BM_ParallelScaling_LRep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelScaling_SRep(benchmark::State& state) {
  RunFamilyScaling(state, RepairFamily::kSemiGlobal, kPathLength);
}
BENCHMARK(BM_ParallelScaling_SRep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelScaling_CRep(benchmark::State& state) {
  RunFamilyScaling(state, RepairFamily::kCommon, kPathLength);
}
BENCHMARK(BM_ParallelScaling_CRep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelScaling_GRep(benchmark::State& state) {
  RunFamilyScaling(state, RepairFamily::kGlobal, kGlobalPathLength);
}
BENCHMARK(BM_ParallelScaling_GRep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- CQA --

BenchSetup MakeCqaWorkload() {
  Rng rng(7);
  GeneratedInstance instance =
      MakeComponentsInstance(rng, std::vector<int>(6, 12));
  return MakeSetup(std::move(instance), /*seed=*/11, 0.5);
}

void BM_ParallelScaling_CqaClosed(benchmark::State& state) {
  BenchSetup setup = MakeCqaWorkload();
  EvalOptions options{.threads = static_cast<int>(state.range(0))};
  // Certainly true (every repair keeps >= 1 tuple of group 0), so the
  // verdict needs the full repair product — no early stop.
  std::unique_ptr<Query> query = MustParse("exists x, y . R(0, x, y)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(
        *setup.problem, *setup.priority, RepairFamily::kAll, *query,
        options);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("sharded closed-query verdict, Rep");
}
BENCHMARK(BM_ParallelScaling_CqaClosed)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelScaling_CqaOpen(benchmark::State& state) {
  BenchSetup setup = MakeCqaWorkload();
  EvalOptions options{.threads = static_cast<int>(state.range(0))};
  // Every key has a certain row (repairs keep >= 1 tuple per group), so
  // the intersection never empties and every repair is evaluated.
  std::unique_ptr<Query> query = MustParse("exists v, w . R(k, v, w)");
  for (auto _ : state) {
    auto answers = PlannedConsistentAnswers(
        *setup.problem, *setup.priority, RepairFamily::kLocal, *query,
        options);
    CHECK(answers.ok());
    CHECK(answers->rows.size() == 6);
    KeepAlive(answers);
  }
  state.SetLabel("sharded open-query answers, L-Rep");
}
BENCHMARK(BM_ParallelScaling_CqaOpen)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
