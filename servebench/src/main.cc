// servebench: end-to-end serving benchmark for prefrep. Runs one workload
// and prints a human-readable report followed, as the last line, by one
// JSON object with the fields correct, attempted, failed and metrics.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <spans.jsonl>]
//
// Exit status: 0 when every checked answer was right, 1 when a check
// failed (the JSON line still reports the run), 2 on a usage error.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\nworkloads:",
               message);
  for (const std::string& name : servebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// JSON string escaping for the metric names and units (plain ASCII).
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  servebench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : servebench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage(("unknown workload " + config.workload).c_str());

  const servebench::RunResult result =
      servebench::RunWorkload(config, process_start);
  for (const std::string& line : result.log) std::printf("%s\n", line.c_str());
  for (const servebench::Metric& m : result.metrics) {
    std::printf("%-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const servebench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + Quoted(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
