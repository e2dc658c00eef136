// FIG5, "Consistent Answers to {∀,∃}-free queries" column.
//
// Paper claims (Figure 5): for quantifier-free (ground) queries,
//   Rep    PTIME           (conflict-graph prover, row 1)
//   L-Rep  co-NP-complete
//   S-Rep  co-NP-complete
//   C-Rep  co-NP-complete
//
// Measured: the polynomial prover stays microsecond-flat while every
// engine that must range over (preferred) repairs grows as Θ(2^n) on r_n.
// The query is the Example-4-style ground disjunction R(0,0) ∨ R(0,1),
// whose consistent answer is true — the worst case, since certifying
// 'true' cannot short-circuit.

#include "bench_common.h"

namespace prefrep::bench {
namespace {

std::unique_ptr<Query> WorstCaseQuery() {
  return MustParse("R(0, 0) or R(0, 1)");
}

// Polynomial engine (Rep row): flat in the repair count.
void BM_Fig5_QfCqa_RepPolynomial(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  std::unique_ptr<Query> query = WorstCaseQuery();
  bool answer = false;
  for (auto _ : state) {
    auto result = GroundConsistentAnswer(*setup.problem, *query);
    CHECK(result.ok());
    answer = *result;
    KeepAlive(answer);
  }
  CHECK(answer);
  state.counters["tuples"] = 2.0 * n;
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("Rep / polynomial conflict-graph prover");
}
BENCHMARK(BM_Fig5_QfCqa_RepPolynomial)
    ->RangeMultiplier(4)
    ->Range(4, 4096)
    ->Unit(benchmark::kMicrosecond);

// Naive engine on the full repair space: Θ(2^n) growth.
void BM_Fig5_QfCqa_RepNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = WorstCaseQuery();
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kAll, *query);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("Rep / naive enumeration");
}
BENCHMARK(BM_Fig5_QfCqa_RepNaive)
    ->DenseRange(4, 14, 2)
    ->Unit(benchmark::kMillisecond);

// Preferred families (co-NP rows): with a half-oriented priority the
// preferred repair space still grows exponentially on r_n.
void BM_Fig5_QfCqa_PreferredFamilies(benchmark::State& state) {
  static const RepairFamily kFamilies[] = {
      RepairFamily::kLocal, RepairFamily::kSemiGlobal, RepairFamily::kCommon};
  RepairFamily family = kFamilies[state.range(0)];
  int n = static_cast<int>(state.range(1));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.5);
  std::unique_ptr<Query> query = WorstCaseQuery();
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, *setup.priority,
                                           family, *query);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.SetLabel(std::string(RepairFamilyName(family)));
}
BENCHMARK(BM_Fig5_QfCqa_PreferredFamilies)
    ->ArgsProduct({{0, 1, 2}, {4, 6, 8, 10, 12}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
