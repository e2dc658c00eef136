// Planner dispatch: what the tier classifier buys over always running the
// sharded enumeration engine.
//
// Three matched pairs, each "planned" (the planner picks the tier) vs
// "forced enumeration" (the planner's own differential reference):
//   - tier 0: a conflict-free key-group instance, where enumeration pays
//     a per-component decomposition for nothing;
//   - tier 1 verdicts: a ground disjunction on r_n, where the repair
//     space is 2^n but the conflict-graph prover is linear;
//   - tier 1 collapse: G-Rep under an *empty* priority on r_n, where P3
//     collapses the family to Rep and the fast path applies even though
//     the caller asked for a preferred family.
// The planned side must beat forced enumeration by >= 10x on the largest
// size of each pair (checked offline against BENCH_pr6.json).

#include "bench_common.h"
#include "cqa/planner.h"

namespace prefrep::bench {
namespace {

const EvalOptions& ForcedEnumeration() {
  static const EvalOptions forced = [] {
    EvalOptions opts;
    opts.force_tier = CqaTier::kEnumeration;
    return opts;
  }();
  return forced;
}

// ----------------------------------------- tier 0: conflict-free bypass --

void BM_PlannerDispatch_ConflictFree_Planned(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 1), /*seed=*/11,
                               0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(1, 0)");
  CqaPlan executed;
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kCommon, *query,
                                           {}, &executed);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(executed.tier);
  }
  CHECK(executed.tier == CqaTier::kSingleRepair);
  state.counters["tuples"] = static_cast<double>(groups);
  state.SetLabel("planned: tier 0 single-repair");
}
BENCHMARK(BM_PlannerDispatch_ConflictFree_Planned)
    ->RangeMultiplier(8)
    ->Range(64, 32768)
    ->Unit(benchmark::kMicrosecond);

void BM_PlannerDispatch_ConflictFree_ForcedEnum(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 1), /*seed=*/11,
                               0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(1, 0)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kCommon, *query,
                                           ForcedEnumeration());
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["tuples"] = static_cast<double>(groups);
  state.SetLabel("forced: tier 2 enumeration");
}
BENCHMARK(BM_PlannerDispatch_ConflictFree_ForcedEnum)
    ->RangeMultiplier(8)
    ->Range(64, 32768)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------- tier 1: ground verdict on r_n --

void BM_PlannerDispatch_GroundVerdict_Planned(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  CqaPlan executed;
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kAll, *query,
                                           {}, &executed);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(executed.tier);
  }
  CHECK(executed.tier == CqaTier::kGroundFastPath);
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("planned: tier 1 conflict-graph prover");
}
BENCHMARK(BM_PlannerDispatch_GroundVerdict_Planned)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_PlannerDispatch_GroundVerdict_ForcedEnum(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kAll, *query,
                                           ForcedEnumeration());
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("forced: tier 2 enumeration");
}
BENCHMARK(BM_PlannerDispatch_GroundVerdict_ForcedEnum)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

// --------------------- tier 1 via P3: preferred family, empty priority --

void BM_PlannerDispatch_EmptyPriorityCollapse_Planned(
    benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  CqaPlan executed;
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kGlobal, *query,
                                           {}, &executed);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(executed.tier);
  }
  CHECK(executed.tier == CqaTier::kGroundFastPath);
  CHECK(executed.family_collapsed);
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("planned: G-Rep collapsed to Rep (P3)");
}
BENCHMARK(BM_PlannerDispatch_EmptyPriorityCollapse_Planned)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_PlannerDispatch_EmptyPriorityCollapse_ForcedEnum(
    benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kGlobal, *query,
                                           ForcedEnumeration());
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("forced: tier 2 G-Rep enumeration");
}
BENCHMARK(BM_PlannerDispatch_EmptyPriorityCollapse_ForcedEnum)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
