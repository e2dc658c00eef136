// Shared helpers for the benchmark binaries. Each bench binary regenerates
// one table/figure of the paper (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the measured results).

#ifndef PREFREP_BENCH_BENCH_COMMON_H_
#define PREFREP_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <memory>

#include "base/logging.h"
#include "base/random.h"
#include "core/algorithm1.h"
#include "core/families.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep::bench {

// A workload instance bundled with its repair problem and a priority.
struct BenchSetup {
  GeneratedInstance instance;
  std::unique_ptr<RepairProblem> problem;
  std::unique_ptr<Priority> priority;
};

inline BenchSetup MakeSetup(GeneratedInstance instance, uint64_t seed,
                            double priority_density) {
  BenchSetup setup;
  setup.instance = std::move(instance);
  auto problem =
      RepairProblem::Create(setup.instance.db.get(), setup.instance.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  setup.problem = std::make_unique<RepairProblem>(*std::move(problem));
  Rng rng(seed);
  setup.priority = std::make_unique<Priority>(
      RandomRankingPriority(rng, setup.problem->graph(), priority_density));
  return setup;
}

inline std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

// benchmark::DoNotOptimize pins values with a "+m,r" multi-alternative asm
// constraint that GCC 12 miscompiles at -O2 and above: the variable read
// back after the asm can hold garbage (google/benchmark#1340). KeepAlive
// uses the single "+m" alternative, which every compiler handles
// correctly. Use it instead of DoNotOptimize whenever the pinned value is
// inspected afterwards (e.g. CHECKed once timing ends).
template <class T>
inline void KeepAlive(T& value) {
#if defined(__GNUC__)
  asm volatile("" : "+m"(value) : : "memory");
#else
  benchmark::DoNotOptimize(value);
#endif
}

}  // namespace prefrep::bench

#endif  // PREFREP_BENCH_BENCH_COMMON_H_
