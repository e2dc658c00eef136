// EXT-2 — range-consistent scalar aggregation (the paper's reference [2]).
//
// Aggregates under repair semantics return ranges [glb, lub]. This bench
// shows (a) the exact engine's cost tracks the preferred-repair count,
// (b) the per-component COUNT(*) algorithm stays polynomial where
// enumeration is impossible, and (c) preferences narrow ranges at modest
// extra cost (family sweep on a fixed workload).

#include "bench_common.h"
#include "cqa/aggregation.h"
#include "cqa/planner.h"

namespace prefrep::bench {
namespace {

// Forced enumeration: the exact range engine, even where COUNT or an
// empty priority would plan a cheaper tier.
EvalOptions Enumerate() {
  EvalOptions options;
  options.force_tier = CqaTier::kEnumeration;
  return options;
}

void BM_Aggregation_SumRangeExact(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/23, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  for (auto _ : state) {
    auto range = PlannedAggregateRange(
        *setup.problem, empty, RepairFamily::kAll, "R", "B",
        AggregateFunction::kSum, Enumerate());
    CHECK(range.ok());
    CHECK(range->lo == 0 && range->hi == static_cast<double>(n));
    benchmark::DoNotOptimize(range->hi);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("SUM range via enumeration");
}
BENCHMARK(BM_Aggregation_SumRangeExact)
    ->DenseRange(4, 14, 2)
    ->Unit(benchmark::kMillisecond);

void BM_Aggregation_CountStarPolynomial(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/23, 0.0);
  for (auto _ : state) {
    auto range = CountStarRange(*setup.problem, "R");
    CHECK(range.ok());
    CHECK(range->lo == static_cast<double>(n));
    benchmark::DoNotOptimize(range->lo);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("COUNT(*) range via component decomposition");
}
BENCHMARK(BM_Aggregation_CountStarPolynomial)
    ->RangeMultiplier(4)
    ->Range(4, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_Aggregation_FamilySweep(benchmark::State& state) {
  RepairFamily family = kAllFamilies[state.range(0)];
  BenchSetup setup = MakeSetup(MakeChainInstance(12), /*seed=*/23, 0.5);
  double width = 0;
  for (auto _ : state) {
    auto range = PlannedAggregateRange(
        *setup.problem, *setup.priority, family, "R", "B",
        AggregateFunction::kSum, Enumerate());
    CHECK(range.ok());
    width = range->hi - range->lo;
    KeepAlive(width);
  }
  state.counters["range_width"] = width;
  state.SetLabel(std::string(RepairFamilyName(family)));
}
BENCHMARK(BM_Aggregation_FamilySweep)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
