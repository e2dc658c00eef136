// FIG5, "Consistent Answers to conjunctive queries" column (Rep row).
//
// Paper claims (Figure 5, row 1): consistent answers are PTIME for
// {∀,∃}-free queries but co-NP-complete already for conjunctive queries
// under plain Rep. We regenerate the split on the same key-group
// databases:
//   - ground quantifier-free query -> polynomial prover, flat;
//   - existentially quantified conjunctive query -> repair enumeration,
//     growing as (group size)^groups.

#include "bench_common.h"

namespace prefrep::bench {
namespace {

// True in a repair iff the kept tuple of group 0 has value < 1, i.e. only
// in repairs keeping (0, 0): the consistent answer is false, but proving
// it requires inspecting the repair space.
std::unique_ptr<Query> ConjunctiveQuery() {
  return MustParse("exists v . R(0, v) and v < 1");
}

void BM_Fig5_ConjunctiveCqa_RepNaive(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 3),
                               /*seed=*/5, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = ConjunctiveQuery();
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kAll, *query);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kUndetermined);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("conjunctive / naive enumeration (co-NP)");
}
BENCHMARK(BM_Fig5_ConjunctiveCqa_RepNaive)
    ->DenseRange(2, 10, 1)
    ->Unit(benchmark::kMillisecond);

// The quantifier-free contrast on identical databases: the ground
// instantiation of the same condition is answered in polynomial time.
void BM_Fig5_ConjunctiveCqa_GroundContrast(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 3),
                               /*seed=*/5, 0.0);
  std::unique_ptr<Query> query = MustParse("R(0, 0)");
  for (auto _ : state) {
    auto result = GroundConsistentAnswer(*setup.problem, *query);
    CHECK(result.ok());
    CHECK(!*result);
    benchmark::DoNotOptimize(*result);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("ground instantiation / polynomial prover");
}
BENCHMARK(BM_Fig5_ConjunctiveCqa_GroundContrast)
    ->DenseRange(2, 10, 1)
    ->Unit(benchmark::kMillisecond);

// Query evaluation cost itself is not the bottleneck: evaluating the
// conjunctive query once on the inconsistent database is cheap; the
// blowup above comes purely from ranging over repairs.
void BM_Fig5_ConjunctiveCqa_SingleEvaluation(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 3),
                               /*seed=*/5, 0.0);
  std::unique_ptr<Query> query = ConjunctiveQuery();
  for (auto _ : state) {
    auto holds = EvalClosed(*setup.instance.db, nullptr, *query);
    CHECK(holds.ok());
    benchmark::DoNotOptimize(*holds);
  }
  state.SetLabel("one evaluation on the inconsistent database");
}
BENCHMARK(BM_Fig5_ConjunctiveCqa_SingleEvaluation)
    ->DenseRange(2, 10, 1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
