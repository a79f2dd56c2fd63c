// perfbench: one workload of the solve-and-serve benchmark per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//   perfbench --list
//
// Prints report lines, a "# labels" line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check failed, 2 on bad arguments or an exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] | --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const std::string& name : perfbench::workload_names()) std::printf("%s\n", name.c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") opts.workload = value;
    else if (arg == "--seed") opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") opts.seconds = std::atof(value.c_str());
    else if (arg == "--trace" && (value == "0" || value == "1")) opts.trace = value == "1";
    else if (arg == "--workdir") opts.workdir = value;
    else return usage();
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0)) return usage();

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& note : res.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& err : res.errors) std::printf("# CHECK FAILED: %s\n", err.c_str());
  std::string labels = "{";
  for (const auto& [key, value] : res.labels)
    labels += (labels.size() > 1 ? ", " : "") + json_string(key) + ": " + json_string(value);
  std::printf("# labels %s}\n", labels.c_str());
  for (const auto& [key, value] : res.labels)
    if (key == "build_type" && value != "Release")
      std::printf("# WARNING: %s build, timings are not representative\n", value.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      res.correct = false;
      std::printf("# CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return res.correct ? 0 : 1;
}
