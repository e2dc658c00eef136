// ABL-2 — family selectivity per workload class.
//
// Figure 5's last column suggests where each family is the right tool:
// L-Rep for keys without duplicates, S-Rep for one FD with duplicates,
// G-Rep / C-Rep for multiple FDs with mutual conflicts. This ablation
// makes the suggestion quantitative: for each workload class (at priority
// density 50%) it reports how many repairs each family retains — where a
// stronger family prunes strictly more, the paper's "possible
// applications" guidance is visible in the numbers.

#include "bench_common.h"

namespace prefrep::bench {
namespace {

GeneratedInstance MakeClassInstance(int workload_class) {
  switch (workload_class) {
    case 0:  // key, no duplicates (L-Rep territory)
      return MakeKeyGroupsInstance(4, 3);
    case 1:  // one non-key FD with duplicates (S-Rep territory)
      return MakeDuplicatesInstance(3, 2, 2);
    case 2:  // two FDs, mutual conflicts, chain (G/C-Rep territory)
      return MakeChainInstance(10);
    default:  // two FDs, mutual conflicts, cycle (G/C-Rep territory)
      return MakeCycleInstance(4);
  }
}

const char* ClassName(int workload_class) {
  switch (workload_class) {
    case 0:
      return "key-groups";
    case 1:
      return "duplicates";
    case 2:
      return "chain";
    default:
      return "cycle";
  }
}

void BM_Ablation_FamilySelectivity(benchmark::State& state) {
  int workload_class = static_cast<int>(state.range(0));
  RepairFamily family = kAllFamilies[state.range(1)];
  GeneratedInstance inst = MakeClassInstance(workload_class);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok());
  Rng rng(2026);
  Priority priority = RandomRankingPriority(rng, problem->graph(), 0.5);

  size_t family_size = 0;
  for (auto _ : state) {
    auto repairs = PreferredRepairs(problem->graph(), priority, family);
    CHECK(repairs.ok());
    family_size = repairs->size();
    KeepAlive(family_size);
  }
  auto all = PreferredRepairs(problem->graph(), Priority(), RepairFamily::kAll);
  CHECK(all.ok());
  state.counters["family_size"] = static_cast<double>(family_size);
  state.counters["all_repairs"] = static_cast<double>(all->size());
  state.counters["retained_pct"] =
      100.0 * static_cast<double>(family_size) /
      static_cast<double>(all->size());
  state.SetLabel(std::string(ClassName(workload_class)) + " / " +
                 std::string(RepairFamilyName(family)));
}
BENCHMARK(BM_Ablation_FamilySelectivity)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
