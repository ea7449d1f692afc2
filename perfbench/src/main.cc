// esa_bench: one run of one benchmark workload.
//
//   esa_bench --workload <ingest-acked|epoch-drain|cluster-epoch> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir> [--spans-out <file>]
//
// Prints "# key: value" facts, then, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"} with every metric the run
// measured (a traced run adds the per-layer metrics; run.py picks the set
// BENCHMARK.json names).  Exits 1 when any correctness check failed, 2 on a
// usage or set-up error (no result line then).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      std::fprintf(stderr, "esa_bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.scratch.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "esa_bench: --scratch and a positive --seconds are required\n");
    return 2;
  }

  Outcome outcome;
  try {
    if (options.workload == "ingest-acked") {
      outcome = RunIngestAcked(options);
    } else if (options.workload == "epoch-drain") {
      outcome = RunEpochDrain(options);
    } else if (options.workload == "cluster-epoch") {
      outcome = RunClusterEpoch(options);
    } else {
      std::fprintf(stderr, "esa_bench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esa_bench: %s: %s\n", options.workload.c_str(), e.what());
    return 2;
  }

  std::printf("# compiler: %s\n# lib_flags: %s\n", __VERSION__, PERFBENCH_LIB_FLAGS);
  for (const auto& [key, value] : outcome.info) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& error : outcome.errors) {
    std::printf("# error: %s\n", error.c_str());
  }

  bool correct = outcome.errors.empty() && outcome.failed == 0 && outcome.attempted > 0;
  std::string metrics;
  for (const auto& [name, value_unit] : outcome.metrics) {
    double value = value_unit.first;
    if (!std::isfinite(value)) {
      std::printf("# error: metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += JsonString(name) + ": {\"value\": " + number +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
