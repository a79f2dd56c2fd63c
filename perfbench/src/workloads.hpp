// The benchmark's workloads: converge a named model instance to tolerance,
// then serve the converged policy through the snapshot path. See
// perfbench/README.md for why each workload exists and what each metric
// means.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/time_iteration.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< where the run's snapshot file is written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<std::string> notes;   ///< human-readable report lines
  std::vector<std::pair<std::string, std::string>> labels;
};

/// Names of every workload, in the order `--workload all` runs them.
std::vector<std::string> workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

// ---- pieces shared with the self-tests ------------------------------------

/// The OLG instance of the olg-d4 workload: reduced_calibration(5, 2, 2),
/// i.e. d = 4, Ns = 4, ndofs = 8.
std::unique_ptr<hddm::core::DynamicModel> make_olg_d4();
hddm::core::TimeIterationOptions olg_d4_options();

}  // namespace perfbench
