// FIG1/EX4 — the repair space of r_n (Figure 1, Example 4).
//
// The paper's point: an inconsistent database may have exponentially many
// repairs (r_n has exactly 2^n), so enumerating them is hopeless while the
// conflict graph remains a linear-size compact representation. This bench
// regenerates the three facets:
//   - conflict-graph construction scales linearly in the number of tuples,
//   - exact repair *counting* via per-component products stays cheap even
//     for n = 256 (2^256 repairs),
//   - repair *enumeration* is Θ(2^n).

#include "bench_common.h"
#include "constraints/conflicts.h"
#include "graph/mis.h"

namespace prefrep::bench {
namespace {

void BM_Fig1_ConflictGraphConstruction(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  GeneratedInstance rn = MakeRnInstance(n);
  for (auto _ : state) {
    auto edges = FindConflicts(*rn.db, rn.fds);
    CHECK(edges.ok());
    benchmark::DoNotOptimize(edges->size());
  }
  state.counters["tuples"] = 2.0 * n;
  state.counters["conflicts"] = n;
}
BENCHMARK(BM_Fig1_ConflictGraphConstruction)
    ->RangeMultiplier(4)
    ->Range(16, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig1_ExactRepairCount(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/1, 0.0);
  BigUint count;
  for (auto _ : state) {
    count = setup.problem->CountRepairs();
    benchmark::DoNotOptimize(&count);
  }
  CHECK(count == BigUint::PowerOfTwo(n));
  state.counters["repair_count_digits"] =
      static_cast<double>(count.ToString().size());
  state.SetLabel("repairs = 2^" + std::to_string(n));
}
BENCHMARK(BM_Fig1_ExactRepairCount)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig1_RepairEnumeration(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/1, 0.0);
  int64_t visited = 0;
  for (auto _ : state) {
    visited = 0;
    Status walked = ForEachPreferredRepair(
        setup.problem->graph(), Priority(), RepairFamily::kAll, {},
        [&visited](int /*worker*/, const DynamicBitset&) {
          ++visited;
          return true;
        });
    CHECK(walked.ok()) << walked.ToString();
    KeepAlive(visited);
  }
  CHECK_EQ(visited, int64_t{1} << n);
  state.counters["repairs"] = static_cast<double>(visited);
  state.counters["repairs_per_sec"] = benchmark::Counter(
      static_cast<double>(visited), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Fig1_RepairEnumeration)
    ->DenseRange(4, 18, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
