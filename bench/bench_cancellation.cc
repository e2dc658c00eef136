// Time-to-cancel for the governed enumeration stack (manual timing).
//
// Each iteration launches a long-running governed query on a worker
// thread, waits until the engine is demonstrably mid-flight (the
// context's repairs_examined counter has moved), then requests
// cancellation and measures the interval until the engine returns. That
// interval — not the query's runtime — is the reported time: it bounds
// how stale a Ctrl-C or deadline can go unnoticed, i.e. the worst-case
// gap between ShouldStop() polls across every engine layer.
//
// Rows cover the two long-loop shapes at threads 1 and 4: streamed
// family enumeration (C-Rep's choice-tree walk over path components,
// repair space far too large to finish) and sharded CQA evaluation (a
// certainly-true query, so no early stop ends the scan first).
//
// The companion guardrail lives in the gated benches compared against
// the previous baseline: attaching no context must stay within noise
// (<2%), since ungoverned paths poll nothing.

#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "base/exec_context.h"
#include "base/thread_pool.h"
#include "graph/conflict_graph.h"

namespace prefrep::bench {
namespace {

struct GraphWorkload {
  ConflictGraph graph;
  Priority priority;
};

GraphWorkload MakePathsWorkload() {
  Rng rng(42);
  std::vector<int> sizes(8, 32);  // ~10k-repair lists per component
  ConflictGraph graph = MakeComponentPathsGraph(rng, sizes);
  Priority priority = RandomRankingPriority(rng, graph, 0.5);
  return GraphWorkload{std::move(graph), std::move(priority)};
}

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void BM_TimeToCancel_FamilyEnumeration(benchmark::State& state) {
  GraphWorkload workload = MakePathsWorkload();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExecutionContext context;
    ParallelOptions options;
    options.threads = threads;
    options.context = &context;
    std::thread worker([&] {
      EnumeratePreferredRepairs(
          workload.graph, workload.priority, RepairFamily::kCommon, options,
          [&context](const DynamicBitset&) {
            context.stats().AddRepairsExamined();
            return true;  // never stops voluntarily: the space is huge
          });
    });
    while (context.stats().repairs_examined() == 0) {
      std::this_thread::yield();
    }
    auto t0 = std::chrono::steady_clock::now();
    context.RequestCancel();
    worker.join();
    auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(SecondsBetween(t0, t1));
  }
  state.SetLabel("C-Rep on 8 paths of 32, threads=" +
                 std::to_string(threads));
}
BENCHMARK(BM_TimeToCancel_FamilyEnumeration)
    ->Arg(1)->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_TimeToCancel_ShardedCqa(benchmark::State& state) {
  // Complete-multipartite components: small per-component lists, a
  // ~390k-repair product dominated by the (sharded) per-repair eval.
  Rng rng(7);
  BenchSetup setup =
      MakeSetup(MakeComponentsInstance(rng, {5, 5, 5, 5, 5, 5, 5, 5}),
                /*seed=*/11, /*priority_density=*/0.0);
  // Certainly true (some tuple of group 0 survives in every repair), so
  // the scan never short-circuits on its own.
  std::unique_ptr<Query> query = MustParse("exists x, y . R(0, x, y)");
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExecutionContext context;
    EvalOptions options;
    options.threads = threads;
    options.force_tier = CqaTier::kEnumeration;
    options.context = &context;
    std::thread worker([&] {
      auto verdict = PlannedConsistentAnswer(
          *setup.problem, *setup.priority, RepairFamily::kAll, *query,
          options);
      // Cancelled runs surface the context's status; completing first
      // (cancel raced the tail of the scan) is also legal.
      CHECK(!verdict.ok() || *verdict == CqaVerdict::kCertainlyTrue);
    });
    while (context.stats().repairs_examined() == 0) {
      std::this_thread::yield();
    }
    auto t0 = std::chrono::steady_clock::now();
    context.RequestCancel();
    worker.join();
    auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(SecondsBetween(t0, t1));
  }
  state.SetLabel("certainly-true CQA over 5^8 repairs, threads=" +
                 std::to_string(threads));
}
BENCHMARK(BM_TimeToCancel_ShardedCqa)
    ->Arg(1)->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
