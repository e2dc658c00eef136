// FIG5, G-Rep row — computing G-consistent answers is Π²ₚ-complete.
//
// Paper claims (Figure 5): answers under G-Rep sit one level above the
// other families in the polynomial hierarchy: deciding the answer ranges
// over repairs (∀) with a co-NP optimality certificate per repair (∃).
// Our exact engine mirrors that structure: enumerate repairs, and for each
// run the ≪-maximality witness search. On alternating conflict cycles the
// per-repair certificate itself scans an exponential repair space, so the
// nesting is visible against C-Rep (PTIME checking) on identical inputs.

#include "bench_common.h"

namespace prefrep::bench {
namespace {

// Partial priority {v_i ≻ u_i} of the corrected Example 9 (see DESIGN.md):
// under it G-Rep = {v-triple} while S-Rep keeps both alternating sets.
Priority CyclePriority(const ConflictGraph& graph, int k) {
  std::vector<std::pair<int, int>> arcs;
  for (int i = 0; i < k; ++i) arcs.emplace_back(2 * i + 1, 2 * i);
  auto priority = Priority::Create(graph, std::move(arcs));
  CHECK(priority.ok());
  return *std::move(priority);
}

void BM_Fig5_GlobalCqa(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeCycleInstance(k), /*seed=*/11, 0.0);
  Priority priority = CyclePriority(setup.problem->graph(), k);
  // Ground fact held by the unique G-repair {v_0..v_{k-1}}: certainly true
  // under G-Rep; certifying it visits every repair and certifies each.
  std::unique_ptr<Query> query = MustParse("R(0, 1, 0, 0)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, priority,
                                           RepairFamily::kGlobal, *query);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["tuples"] = 2.0 * k;
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("G-Rep: repairs x optimality certificates");
}
BENCHMARK(BM_Fig5_GlobalCqa)
    ->DenseRange(3, 9, 1)
    ->Unit(benchmark::kMillisecond);

// Same instances under C-Rep: membership checking is PTIME (Prop. 7), so
// the answer engine pays only the enumeration of the C-repairs.
void BM_Fig5_CommonCqaContrast(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeCycleInstance(k), /*seed=*/11, 0.0);
  Priority priority = CyclePriority(setup.problem->graph(), k);
  std::unique_ptr<Query> query = MustParse("R(0, 1, 0, 0)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, priority,
                                           RepairFamily::kCommon, *query);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["tuples"] = 2.0 * k;
  state.SetLabel("C-Rep contrast (co-NP)");
}
BENCHMARK(BM_Fig5_CommonCqaContrast)
    ->DenseRange(3, 11, 1)
    ->Unit(benchmark::kMillisecond);

// S-Rep on the same inputs: the PTIME-checkable family that keeps both
// alternating triples; the answer degrades to 'undetermined'.
void BM_Fig5_SemiGlobalCqaContrast(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeCycleInstance(k), /*seed=*/11, 0.0);
  Priority priority = CyclePriority(setup.problem->graph(), k);
  std::unique_ptr<Query> query = MustParse("R(0, 1, 0, 0)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(
        *setup.problem, priority, RepairFamily::kSemiGlobal, *query);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kUndetermined);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["tuples"] = 2.0 * k;
  state.SetLabel("S-Rep contrast (answer stays undetermined)");
}
BENCHMARK(BM_Fig5_SemiGlobalCqaContrast)
    ->DenseRange(3, 11, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
