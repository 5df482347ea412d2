// perfbench_run: one workload of the repository benchmark in its own
// process. perfbench/run.py builds this binary and runs it as
//
//   perfbench_run --workload sweep_lstm|greedy_gru|serve_wcnn --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR] [--commit ID]
//                 [--fs TYPE]
//
// It prints one "metric" line per metric, one stamp line, and, last, the
// result object {"correct", "attempted", "failed", "metrics"}. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones of a traced
// round (see perfbench/README.md).
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "perfbench/src/bench.h"
#include "src/util/args.h"
#include "src/util/sync.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload sweep_lstm|greedy_gru|"
               "serve_wcnn --seed N --seconds S --trace 0|1\n"
               "                     [--work-dir DIR] [--commit ID] "
               "[--fs TYPE]\n");
  return 2;
}

/// Strings in the stamp come from the build and from run.py; keep them to a
/// JSON-safe alphabet rather than escaping.
std::string json_safe(std::string s) {
  for (char& c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_' || c == ':' || c == '=' || c == ' ' || c == '+';
    if (!ok) c = '_';
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const advtext::ArgParser args(argc, argv);
  Options options;
  options.workload = args.get_string("workload");
  if (options.workload != "sweep_lstm" && options.workload != "greedy_gru" &&
      options.workload != "serve_wcnn") {
    return usage();
  }
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_int("trace", 0) != 0;
  options.work_dir = args.get_string("work-dir", ".");

  RunResult result;
  try {
    result = options.workload == "serve_wcnn" ? perfbench::run_serve(options)
                                              : perfbench::run_sweep(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
      "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"hardware_threads\": %zu, \"commit\": \"%s\", "
      "\"state_fs\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      json_safe(result.size).c_str(), options.seconds, options.trace ? 1 : 0,
      json_safe(PERFBENCH_BUILD_TYPE).c_str(),
      json_safe(PERFBENCH_COMPILER).c_str(), advtext::hardware_threads(),
      json_safe(args.get_string("commit", "unknown")).c_str(),
      json_safe(args.get_string("fs", "unknown")).c_str());

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      result.problems.empty() ? "true" : "false", result.attempted,
      result.failed, metrics.c_str());
  return 0;
}
