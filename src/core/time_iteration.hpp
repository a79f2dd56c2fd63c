// Time iteration (Algorithm 1) with per-shock adaptive sparse grids and the
// single-node part of the hybrid parallelization scheme of Sec. IV-A.
//
// Each iteration rebuilds every shock's ASG through the shared level builder
// (core/level_builder.hpp): solve the equilibrium at each level's new points,
// hierarchize the new surpluses incrementally, refine adaptively where the
// surplus indicator exceeds the threshold epsilon, and stop at the level cap.
// This driver hands the builder the node's work-stealing pool as the runner
// of the warm starts, point solves and hierarchization batches, solves every
// point itself (no merge), and offloads p_next interpolations to the device
// when one is attached. Convergence is measured as the change between
// successive policies on the asset-demand coefficients. The distributed
// (multi-rank) driver in src/cluster/ calls the same builder.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/model.hpp"
#include "core/policy.hpp"
#include "kernels/kernel_api.hpp"
#include "parallel/device_dispatcher.hpp"
#include "parallel/work_stealing_pool.hpp"

namespace hddm::core {

struct TimeIterationOptions {
  /// Regular sparse-grid level built unconditionally each iteration.
  int base_level = 2;
  /// Adaptive refinement threshold epsilon; <= 0 disables adaptivity.
  double refine_epsilon = 0.0;
  /// Level cap for adaptive refinement (the paper's Lmax = 6).
  int max_level = 6;

  int max_iterations = 100;
  /// Convergence tolerance on the sup-norm policy change (asset dofs).
  double tolerance = 1e-4;

  std::size_t threads = 1;
  kernels::KernelKind kernel = kernels::KernelKind::X86;
  /// Offload p_next interpolations to the simulated accelerator through the
  /// batched dispatcher pipeline (ticketed en-bloc submission per level).
  bool use_device = false;
  kernels::KernelKind device_kernel = kernels::KernelKind::SimGpu;
  /// Dispatcher configuration (single source of truth for the defaults):
  /// `offload.max_batch` is also the chunk size the warm-start collection
  /// submits per ticket; `offload.queue_capacity` is the outstanding-point
  /// bound past which chunks fall back to the CPU kernel.
  parallel::DispatcherOptions offload;

  /// Extra diagnostics: Euler residuals at `residual_samples` random
  /// off-grid points per shock each iteration (0 disables).
  int residual_samples = 0;
  std::uint64_t seed = 42;
};

/// Per-iteration statistics. Every field is a delta of exactly one step():
/// both drivers reset the struct at entry (keeping `iteration`) and report
/// dispatcher/gather counters as deltas of p_next's cumulative totals, so a
/// multi-step run never re-reports an earlier iteration's work — even when
/// the caller reuses one stats object across steps.
struct IterationStats {
  int iteration = 0;
  double policy_change_l2 = 0.0;    ///< RMS change over grid points (asset dofs)
  double policy_change_linf = 0.0;  ///< sup-norm change
  double euler_residual = 0.0;      ///< mean sampled residual (if enabled)
  std::uint32_t total_points = 0;
  std::vector<std::uint32_t> points_per_shock;
  std::uint32_t solver_failures = 0;
  std::uint64_t interpolations = 0;
  // Per-solve gather counters (from the models' PointSolveResult plus the
  // policy-level delta of p_next's evaluate_gather traffic).
  std::uint64_t solver_gathers = 0;    ///< gathers issued inside point solves
  std::uint64_t policy_gathers = 0;    ///< evaluate_gather calls p_next served
  std::uint64_t gathered_requests = 0; ///< interpolations those calls carried
  std::uint64_t fastpath_gathers = 0;  ///< single-shock fast-path gathers p_next served
  std::uint64_t gradient_gathers = 0;  ///< evaluate_gather_with_gradient calls served
  // Jacobian-pipeline counters, aggregated from every point solve's
  // PointSolveResult::jacobian (see solver::JacobianStats). `jacobian_mode`
  // is the mode the step's solves ran under (uniform per run — the models
  // fix it at construction).
  solver::JacobianMode jacobian_mode = solver::JacobianMode::BatchedFd;
  std::uint64_t jacobian_refreshes_analytic = 0;  ///< analytic Jacobian refreshes
  std::uint64_t jacobian_refreshes_fd = 0;        ///< finite-difference refreshes
  std::uint64_t jacobian_columns_analytic = 0;    ///< closed-form columns produced
  std::uint64_t jacobian_columns_fd = 0;          ///< FD columns produced
  std::uint64_t fd_check_flagged_columns = 0;     ///< FD-check columns beyond tolerance
  double fd_check_max_rel_dev = 0.0;              ///< worst FD-check deviation seen
  // Offload-pipeline counters for this iteration (deltas of p_next's
  // dispatcher counters; zero when p_next has no device attached).
  std::uint64_t device_offloaded = 0;  ///< points served by the device
  std::uint64_t device_rejected = 0;   ///< points refused (CPU fallback)
  std::uint64_t device_batches = 0;    ///< device launches
  std::uint64_t device_runs = 0;       ///< accepted ticketed submissions
  double device_mean_batch = 0.0;      ///< offloaded / launches
  /// Fills the device_* fields from a dispatcher counter delta (both
  /// drivers report per-step deltas of p_next's cumulative counters).
  void record_device_delta(const parallel::DispatcherStats& delta) {
    device_offloaded = delta.offloaded_points;
    device_rejected = delta.rejected_points;
    device_batches = delta.batches;
    device_runs = delta.submitted_runs;
    device_mean_batch = delta.mean_batch();
  }
  /// Fills the policy gather fields from a policy counter delta.
  void record_gather_delta(const GatherStats& delta) {
    policy_gathers = delta.gathers;
    gathered_requests = delta.gathered_requests;
    fastpath_gathers = delta.fastpath_gathers;
    gradient_gathers = delta.gradient_gathers;
  }
  /// Accumulates one point solve's Jacobian-provider counters (called by
  /// the level builder for every PointSolveResult, in point order).
  void record_jacobian(const solver::JacobianStats& js) {
    jacobian_mode = js.mode;
    jacobian_refreshes_analytic += static_cast<std::uint64_t>(js.analytic_refreshes);
    jacobian_refreshes_fd += static_cast<std::uint64_t>(js.fd_refreshes);
    jacobian_columns_analytic += static_cast<std::uint64_t>(js.analytic_columns);
    jacobian_columns_fd += static_cast<std::uint64_t>(js.fd_columns);
    fd_check_flagged_columns += static_cast<std::uint64_t>(js.fd_check_flagged_columns);
    if (js.fd_check_max_rel_dev > fd_check_max_rel_dev)
      fd_check_max_rel_dev = js.fd_check_max_rel_dev;
  }
  /// Per-iteration reset: zero everything but the iteration index (called by
  /// the drivers at step entry so reused structs cannot accumulate).
  void reset_for_step() {
    IterationStats fresh;
    fresh.iteration = iteration;
    *this = std::move(fresh);
  }
  double seconds = 0.0;
  double solve_seconds = 0.0;
  double hierarchize_seconds = 0.0;
};

struct TimeIterationResult {
  std::shared_ptr<AsgPolicy> policy;
  std::vector<IterationStats> history;
  bool converged = false;
  int iterations = 0;
  double final_change = 0.0;
  [[nodiscard]] double total_seconds() const {
    double s = 0.0;
    for (const auto& st : history) s += st.seconds;
    return s;
  }
};

class TimeIterationDriver {
 public:
  TimeIterationDriver(const DynamicModel& model, TimeIterationOptions options);

  /// Runs Algorithm 1 to convergence (or the iteration cap).
  TimeIterationResult run();

  /// Performs exactly one policy update given p_next; exposed for the
  /// single-node benchmark (Fig. 7 evaluates "a single time step") and for
  /// the cluster runtime which orchestrates iterations itself.
  std::shared_ptr<AsgPolicy> step(const PolicyEvaluator& p_next, IterationStats& stats);

  /// Optional per-iteration observer (progress logging in examples/benches).
  std::function<void(const IterationStats&)> on_iteration;

 private:
  const DynamicModel& model_;
  TimeIterationOptions opts_;
  std::unique_ptr<parallel::WorkStealingPool> pool_;
};

/// Convenience entry point.
TimeIterationResult solve_time_iteration(const DynamicModel& model,
                                         const TimeIterationOptions& options);

}  // namespace hddm::core
