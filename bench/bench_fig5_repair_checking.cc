// FIG5, "Repair Check" column — X-repair checking per family.
//
// Paper claims (Figure 5):
//   Rep    PTIME      | L-Rep PTIME | S-Rep PTIME | C-Rep PTIME
//   G-Rep  co-NP-complete
//
// We measure the latency of IsPreferredRepair on a valid repair (the
// Algorithm 1 output, which belongs to every family) as the instance
// grows. The polynomial families are swept on large key-group workloads;
// G-repair checking is swept on conflict chains, where certifying global
// optimality forces the witness search through an exponentially growing
// repair space (Fibonacci-many repairs on a path).

#include "bench_common.h"

namespace prefrep::bench {
namespace {

constexpr int kPolyFamilyCount = 4;
const RepairFamily kPolyFamilies[kPolyFamilyCount] = {
    RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kSemiGlobal,
    RepairFamily::kCommon};

// ---- PTIME rows: Rep, L-Rep, S-Rep, C-Rep on key-group workloads --------

void BM_Fig5_RepairCheck_PolyFamilies(benchmark::State& state) {
  RepairFamily family = kPolyFamilies[state.range(0)];
  int groups = static_cast<int>(state.range(1));
  BenchSetup setup =
      MakeSetup(MakeKeyGroupsInstance(groups, 4), /*seed=*/7, 0.5);
  DynamicBitset repair =
      CleanDatabase(setup.problem->graph(), *setup.priority);
  bool member = false;
  for (auto _ : state) {
    member = *IsPreferredRepair(setup.problem->graph(), *setup.priority,
                                family, repair);
    KeepAlive(member);
  }
  CHECK(member);  // Algorithm 1 outputs are in C ⊆ G ⊆ S ⊆ L ⊆ Rep
  state.counters["tuples"] = 4.0 * groups;
  state.SetLabel(std::string(RepairFamilyName(family)));
}
BENCHMARK(BM_Fig5_RepairCheck_PolyFamilies)
    ->ArgsProduct({{0, 1, 2, 3}, {16, 64, 256, 1024}})
    ->Unit(benchmark::kMicrosecond);

// ---- co-NP row: G-repair checking on conflict chains ---------------------

void BM_Fig5_RepairCheck_Global(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeChainInstance(length), /*seed=*/7, 0.5);
  DynamicBitset repair =
      CleanDatabase(setup.problem->graph(), *setup.priority);
  bool member = false;
  for (auto _ : state) {
    member = *IsPreferredRepair(setup.problem->graph(), *setup.priority,
                                RepairFamily::kGlobal, repair);
    KeepAlive(member);
  }
  CHECK(member);
  state.counters["tuples"] = length;
  state.counters["repair_space"] =
      setup.problem->CountRepairs().ToDouble();
  state.SetLabel("G-Rep (witness search over all repairs)");
}
BENCHMARK(BM_Fig5_RepairCheck_Global)
    ->DenseRange(8, 38, 3)
    ->Unit(benchmark::kMicrosecond);

// The same chain sizes for a PTIME family: the flat baseline that makes
// the exponential growth of G-checking visible side by side.
void BM_Fig5_RepairCheck_CommonOnChains(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeChainInstance(length), /*seed=*/7, 0.5);
  DynamicBitset repair =
      CleanDatabase(setup.problem->graph(), *setup.priority);
  bool member = false;
  for (auto _ : state) {
    member = *IsPreferredRepair(setup.problem->graph(), *setup.priority,
                                RepairFamily::kCommon, repair);
    KeepAlive(member);
  }
  CHECK(member);
  state.counters["tuples"] = length;
  state.SetLabel("C-Rep (greedy Prop. 7 simulation)");
}
BENCHMARK(BM_Fig5_RepairCheck_CommonOnChains)
    ->DenseRange(8, 38, 3)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
