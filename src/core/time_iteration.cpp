#include "core/time_iteration.hpp"

#include <cmath>

#include "core/level_builder.hpp"
#include "parallel/parallel_for.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace hddm::core {

namespace {

LevelPlan level_plan(const TimeIterationOptions& o) {
  LevelPlan plan;
  plan.base_level = o.base_level;
  plan.refine_epsilon = o.refine_epsilon;
  plan.max_level = o.max_level;
  plan.warm_chunk = o.offload.max_batch;
  return plan;
}

}  // namespace

TimeIterationDriver::TimeIterationDriver(const DynamicModel& model, TimeIterationOptions options)
    : model_(model), opts_(std::move(options)) {
  level_plan(opts_).validate();
  pool_ = std::make_unique<parallel::WorkStealingPool>(opts_.threads);
}

std::shared_ptr<AsgPolicy> TimeIterationDriver::step(const PolicyEvaluator& p_next,
                                                     IterationStats& stats) {
  const util::Timer timer;
  const int Ns = model_.num_shocks();

  // Strict per-iteration reporting: zero every accumulator up front (a
  // reused stats object must not carry earlier steps' counts into this one).
  stats.reset_for_step();

  // Offload and gather counters are cumulative on p_next; report this
  // iteration's contribution as a delta of the snapshots taken here.
  const auto* prev_asg = dynamic_cast<const AsgPolicy*>(&p_next);
  const parallel::DispatcherStats device_before =
      prev_asg ? prev_asg->device_stats() : parallel::DispatcherStats{};
  const GatherStats gather_before = prev_asg ? prev_asg->gather_stats() : GatherStats{};

  // This node solves every point of every level on its pool; hierarchization
  // batches run there too (bitwise the serial result).
  LevelPlan plan = level_plan(opts_);
  plan.solve_for_each = [this](std::size_t n, const std::function<void(std::size_t)>& body) {
    parallel::parallel_for(*pool_, 0, n, body, /*grain=*/1);
  };
  plan.hierarchize_for_each = [this](std::size_t n,
                                     const std::function<void(std::size_t)>& body) {
    parallel::parallel_for(*pool_, 0, n, body, /*grain=*/4);
  };

  // The top parallel layer (shocks -> MPI groups) lives in src/cluster/;
  // within one process the shocks are built in turn, each using the full
  // thread pool — matching one MPI group's view of Fig. 2.
  std::vector<std::unique_ptr<ShockGrid>> grids(static_cast<std::size_t>(Ns));
  std::uint32_t total_points = 0;
  for (int z = 0; z < Ns; ++z) {
    auto& grid = grids[static_cast<std::size_t>(z)];
    grid = std::make_unique<ShockGrid>(build_shock_grid(model_, z, p_next, plan, stats),
                                       opts_.kernel);
    total_points += grid->num_points();
  }

  if (prev_asg) {
    stats.record_device_delta(prev_asg->device_stats().since(device_before));
    stats.record_gather_delta(prev_asg->gather_stats().since(gather_before));
  }

  auto policy = std::make_shared<AsgPolicy>(model_.ndofs(), std::move(grids));
  if (opts_.use_device) policy->attach_default_device(opts_.device_kernel, opts_.offload);

  // Normalize the accumulated L2 change into an RMS over (points x dofs).
  const double cells = static_cast<double>(total_points) * model_.indicator_dofs();
  if (cells > 0.0) stats.policy_change_l2 = std::sqrt(stats.policy_change_l2 / cells);

  stats.total_points = total_points;
  stats.points_per_shock = policy->points_per_shock();
  stats.seconds = timer.seconds();
  return policy;
}

TimeIterationResult TimeIterationDriver::run() {
  TimeIterationResult result;

  util::Rng residual_rng(opts_.seed);
  const InitialPolicyEvaluator initial(model_);
  const PolicyEvaluator* p_next = &initial;
  std::shared_ptr<AsgPolicy> current;

  for (int it = 0; it < opts_.max_iterations; ++it) {
    IterationStats stats;
    stats.iteration = it;
    std::shared_ptr<AsgPolicy> next = step(*p_next, stats);

    if (opts_.residual_samples > 0) {
      util::RunningStats rs;
      std::vector<double> x(static_cast<std::size_t>(model_.state_dim()));
      for (int z = 0; z < model_.num_shocks(); ++z) {
        for (int s = 0; s < opts_.residual_samples; ++s) {
          for (double& xi : x) xi = residual_rng.uniform();
          rs.add(model_.equilibrium_residual(z, x, *next));
        }
      }
      stats.euler_residual = rs.mean();
    }

    result.history.push_back(stats);
    if (on_iteration) on_iteration(stats);
    util::log_info("time-iteration it=", it, " points=", stats.total_points,
                   " dlinf=", stats.policy_change_linf, " dl2=", stats.policy_change_l2,
                   " fails=", stats.solver_failures, " gathers=", stats.solver_gathers,
                   " jac=", solver::to_string(stats.jacobian_mode),
                   " acols=", stats.jacobian_columns_analytic,
                   " fdcols=", stats.jacobian_columns_fd,
                   " offl=", stats.device_offloaded, " batches=", stats.device_batches,
                   " secs=", stats.seconds);

    current = std::move(next);
    p_next = current.get();
    result.iterations = it + 1;
    result.final_change = stats.policy_change_linf;
    // Iteration 0 measures the distance to the analytic warm start, not to a
    // solved policy — never declare convergence on it.
    if (it > 0 && stats.policy_change_linf < opts_.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.policy = std::move(current);
  return result;
}

TimeIterationResult solve_time_iteration(const DynamicModel& model,
                                         const TimeIterationOptions& options) {
  TimeIterationDriver driver(model, options);
  return driver.run();
}

}  // namespace hddm::core
