// The three serving workloads. Each builds its inputs from the seed, drives
// one prefrep Session (or a chain of derived Sessions) through the public
// server API for the requested time, checks the answers, and reports the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump path for the traced run; "" = none
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  // human-readable context (sample count, percentile)
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, refusals and wrong answers
  std::vector<Metric> metrics;
  std::vector<std::string> log;  // human-readable lines printed before JSON
};

// The workload names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

// Runs one workload; the first set-up is timed from `process_start`.
// Aborts only on a harness bug; program errors and wrong answers are
// counted in the result.
RunResult RunWorkload(const RunConfig& config,
                      std::chrono::steady_clock::time_point process_start);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
