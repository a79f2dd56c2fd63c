#include "core/time_iteration.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <stdexcept>

#include "parallel/parallel_for.hpp"
#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace hddm::core {

TimeIterationDriver::TimeIterationDriver(const DynamicModel& model, TimeIterationOptions options)
    : model_(model), opts_(std::move(options)) {
  if (opts_.base_level < 1) throw std::invalid_argument("TimeIteration: base_level must be >= 1");
  if (opts_.max_level < opts_.base_level)
    throw std::invalid_argument("TimeIteration: max_level must be >= base_level");
  pool_ = std::make_unique<parallel::WorkStealingPool>(opts_.threads);
}

TimeIterationDriver::BuiltShock TimeIterationDriver::build_shock(int z,
                                                                 const PolicyEvaluator& p_next,
                                                                 IterationStats& stats) {
  const int d = model_.state_dim();
  const int nd = model_.ndofs();
  const int nd_ind = model_.indicator_dofs();

  sg::GridStorage storage(d);
  sg::DenseGridData dense;
  dense.dim = d;
  dense.ndofs = nd;

  BuiltShock built;
  std::atomic<std::uint32_t> failures{0};
  std::atomic<std::uint64_t> interpolations{0};
  std::atomic<std::uint64_t> gathers{0};
  std::atomic<double> linf_acc{stats.policy_change_linf};
  std::atomic<double> l2_acc{stats.policy_change_l2};
  // Jacobian-provider counters (the point solves run on the pool, so the
  // per-solve JacobianStats are summed through atomics like the rest).
  std::atomic<int> jac_refreshes_analytic{0}, jac_refreshes_fd{0};
  std::atomic<int> jac_columns_analytic{0}, jac_columns_fd{0};
  std::atomic<int> jac_fd_check_flagged{0};
  std::atomic<double> jac_fd_check_dev{0.0};
  std::atomic<int> jac_mode{-1};

  // Per-dof normalization scales for the refinement indicator, measured from
  // the base-level nodal values (policy coefficients differ in magnitude
  // across ages). Only the leading indicator_dofs() drive refinement and the
  // convergence metric.
  std::vector<double> dof_scale(static_cast<std::size_t>(nd_ind), 0.0);
  bool scales_ready = false;

  std::vector<double> last_indicators;  // g(alpha) of the newest level's points
  std::uint32_t last_first = 0;         // first id of the newest level

  for (int level = 1; level <= opts_.max_level; ++level) {
    const std::uint32_t n_known = storage.size();
    if (level <= opts_.base_level) {
      sg::append_level_increment(storage, level);
    } else {
      if (opts_.refine_epsilon <= 0.0) break;
      const sg::RefinementOptions ropts{opts_.refine_epsilon, opts_.max_level, true};
      sg::refine_by_surplus(storage, last_first, last_indicators, ropts);
    }
    if (storage.size() == n_known) break;  // nothing new -> done
    const std::uint32_t n_new = storage.size() - n_known;

    // Extend the dense mirror with the new points' pairs and empty rows.
    const auto flat = storage.flat_pairs();
    dense.pairs.assign(flat.begin(), flat.end());
    dense.nno = storage.size();
    dense.surplus.resize(static_cast<std::size_t>(dense.nno) * nd, 0.0);

    // --- Solve the equilibrium at every new point (the Fig. 2 inner loop).
    {
      const util::ScopedAccumulator acc(stats.solve_seconds);
      const auto sd = static_cast<std::size_t>(d);
      const auto snd = static_cast<std::size_t>(nd);

      // Warm starts = previous policy at the level's new points, collected
      // per chunk and evaluated through the batched entry point in
      // offload.max_batch-sized chunks — each chunk is one device ticket drained
      // in a single launch (CPU-kernel fallback when the queue is full) —
      // instead of one blocking per-point interpolation inside the workers.
      // The coordinate gather runs inside the chunk workers too, so no
      // serial O(n_new) section precedes the parallel solve.
      std::vector<double> xs(n_new * sd);
      std::vector<double> warm_values(n_new * snd);
      const std::size_t chunk = std::max<std::size_t>(opts_.offload.max_batch, 1);
      const std::size_t nchunks = (n_new + chunk - 1) / chunk;
      parallel::parallel_for(
          *pool_, 0, nchunks,
          [&](std::size_t ci) {
            const std::size_t begin = ci * chunk;
            const std::size_t len = std::min(chunk, n_new - begin);
            for (std::size_t k = begin; k < begin + len; ++k) {
              const std::vector<double> x_unit =
                  storage.coordinates(n_known + static_cast<std::uint32_t>(k));
              std::copy(x_unit.begin(), x_unit.end(),
                        xs.begin() + static_cast<std::ptrdiff_t>(k * sd));
            }
            p_next.evaluate_batch(z, std::span<const double>(xs).subspan(begin * sd, len * sd),
                                  std::span<double>(warm_values).subspan(begin * snd, len * snd),
                                  len);
          },
          /*grain=*/1);
      interpolations.fetch_add(n_new, std::memory_order_relaxed);

      parallel::parallel_for(
          *pool_, n_known, storage.size(),
          [&](std::size_t idx) {
            const auto id = static_cast<std::uint32_t>(idx);
            const std::size_t k = idx - n_known;
            const std::span<const double> x_unit(xs.data() + k * sd, sd);
            const std::span<const double> warm(warm_values.data() + k * snd, snd);

            PointSolveResult res = model_.solve_point(z, x_unit, p_next, warm);
            if (!res.converged) failures.fetch_add(1, std::memory_order_relaxed);
            interpolations.fetch_add(static_cast<std::uint64_t>(res.interpolations),
                                     std::memory_order_relaxed);
            gathers.fetch_add(static_cast<std::uint64_t>(res.gathers),
                              std::memory_order_relaxed);
            jac_refreshes_analytic.fetch_add(res.jacobian.analytic_refreshes,
                                             std::memory_order_relaxed);
            jac_refreshes_fd.fetch_add(res.jacobian.fd_refreshes, std::memory_order_relaxed);
            jac_columns_analytic.fetch_add(res.jacobian.analytic_columns,
                                           std::memory_order_relaxed);
            jac_columns_fd.fetch_add(res.jacobian.fd_columns, std::memory_order_relaxed);
            jac_fd_check_flagged.fetch_add(res.jacobian.fd_check_flagged_columns,
                                           std::memory_order_relaxed);
            jac_mode.store(static_cast<int>(res.jacobian.mode), std::memory_order_relaxed);
            double dev = jac_fd_check_dev.load(std::memory_order_relaxed);
            while (res.jacobian.fd_check_max_rel_dev > dev &&
                   !jac_fd_check_dev.compare_exchange_weak(dev,
                                                           res.jacobian.fd_check_max_rel_dev)) {
            }
            std::copy(res.dofs.begin(), res.dofs.end(), dense.surplus_row(id));

            // Policy-change metric: normalized difference to p_next at the
            // point (warm holds the old policy's values here).
            double linf = 0.0, l2 = 0.0;
            for (int dof = 0; dof < nd_ind; ++dof) {
              const double diff =
                  std::fabs(res.dofs[static_cast<std::size_t>(dof)] - warm[static_cast<std::size_t>(dof)]) /
                  (1.0 + std::fabs(warm[static_cast<std::size_t>(dof)]));
              linf = std::max(linf, diff);
              l2 += diff * diff;
            }
            // Lock-free max / sum accumulation (once per point, not per dof).
            double cur = linf_acc.load(std::memory_order_relaxed);
            while (linf > cur && !linf_acc.compare_exchange_weak(cur, linf)) {
            }
            cur = l2_acc.load(std::memory_order_relaxed);
            while (!l2_acc.compare_exchange_weak(cur, cur + l2)) {
            }
          },
          /*grain=*/1);
    }

    // --- Hierarchize the new nodal values into surpluses, each level-sum
    // batch spread over the pool (bitwise the serial result).
    {
      const util::ScopedAccumulator acc(stats.hierarchize_seconds);
      sg::hierarchize_tail(dense, n_known,
                           [this](std::size_t n, const std::function<void(std::size_t)>& body) {
                             parallel::parallel_for(*pool_, 0, n, body, /*grain=*/4);
                           });
    }

    // --- Refinement indicators for the next round.
    if (!scales_ready) {
      for (std::uint32_t p = 0; p < dense.nno; ++p) {
        const double* row = dense.surplus_row(p);
        for (int dof = 0; dof < nd_ind; ++dof)
          dof_scale[static_cast<std::size_t>(dof)] =
              std::max(dof_scale[static_cast<std::size_t>(dof)], std::fabs(row[dof]));
      }
      for (double& s : dof_scale) s = std::max(s, 1e-8);
      scales_ready = true;
    }
    last_first = n_known;
    last_indicators.assign(n_new, 0.0);
    for (std::uint32_t k = 0; k < n_new; ++k) {
      const double* row = dense.surplus_row(n_known + k);
      double g = 0.0;
      for (int dof = 0; dof < nd_ind; ++dof)
        g = std::max(g, std::fabs(row[dof]) / dof_scale[static_cast<std::size_t>(dof)]);
      last_indicators[k] = g;
    }
  }

  stats.policy_change_linf = linf_acc.load();
  stats.policy_change_l2 = l2_acc.load();
  built.solver_failures = failures.load();
  built.interpolations = interpolations.load();
  built.gathers = gathers.load();
  built.jacobian.analytic_refreshes = jac_refreshes_analytic.load();
  built.jacobian.fd_refreshes = jac_refreshes_fd.load();
  built.jacobian.analytic_columns = jac_columns_analytic.load();
  built.jacobian.fd_columns = jac_columns_fd.load();
  built.jacobian.fd_check_flagged_columns = jac_fd_check_flagged.load();
  built.jacobian.fd_check_max_rel_dev = jac_fd_check_dev.load();
  if (jac_mode.load() >= 0) built.jacobian.mode = static_cast<solver::JacobianMode>(jac_mode.load());
  built.grid = std::make_unique<ShockGrid>(storage, nd,
                                           std::span<const double>(dense.surplus.data(),
                                                                   dense.surplus.size()),
                                           opts_.kernel);
  return built;
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

  std::vector<std::unique_ptr<ShockGrid>> grids(static_cast<std::size_t>(Ns));
  // The top parallel layer (shocks -> MPI groups) lives in src/cluster/;
  // within one process the shocks are built in turn, each using the full
  // thread pool — matching one MPI group's view of Fig. 2.
  std::uint32_t total_points = 0;
  for (int z = 0; z < Ns; ++z) {
    BuiltShock built = build_shock(z, p_next, stats);
    stats.solver_failures += built.solver_failures;
    stats.interpolations += built.interpolations;
    stats.solver_gathers += built.gathers;
    stats.record_jacobian(built.jacobian);
    total_points += built.grid->num_points();
    grids[static_cast<std::size_t>(z)] = std::move(built.grid);
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
