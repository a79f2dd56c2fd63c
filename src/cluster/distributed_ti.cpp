#include "cluster/distributed_ti.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "cluster/group_assign.hpp"
#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/timer.hpp"

namespace hddm::cluster {

namespace {

using core::AsgPolicy;
using core::PolicyEvaluator;

/// Flat double encoding of a finished shock grid:
/// [state, nno, dim, ndofs, pairs(l,i as doubles)..., surpluses...].
std::vector<double> serialize_shock(int state, const sg::GridStorage& storage, int ndofs,
                                    std::span<const double> surpluses) {
  const int d = storage.dim();
  const std::uint32_t nno = storage.size();
  std::vector<double> blob;
  blob.reserve(4 + static_cast<std::size_t>(nno) * (2 * d + ndofs));
  blob.push_back(static_cast<double>(state));
  blob.push_back(static_cast<double>(nno));
  blob.push_back(static_cast<double>(d));
  blob.push_back(static_cast<double>(ndofs));
  const auto pairs = storage.flat_pairs();
  for (const auto& li : pairs) {
    blob.push_back(static_cast<double>(li.l));
    blob.push_back(static_cast<double>(li.i));
  }
  blob.insert(blob.end(), surpluses.begin(), surpluses.end());
  return blob;
}

struct DeserializedShock {
  int state = 0;
  sg::GridStorage storage{1};
  std::vector<double> surpluses;
  std::size_t consumed = 0;
};

DeserializedShock deserialize_shock(std::span<const double> blob) {
  if (blob.size() < 4) throw std::runtime_error("deserialize_shock: truncated header");
  DeserializedShock out;
  out.state = static_cast<int>(blob[0]);
  const auto nno = static_cast<std::uint32_t>(blob[1]);
  const int d = static_cast<int>(blob[2]);
  const int ndofs = static_cast<int>(blob[3]);
  const std::size_t need = 4 + static_cast<std::size_t>(nno) * (2 * static_cast<std::size_t>(d) +
                                                               static_cast<std::size_t>(ndofs));
  if (blob.size() < need) throw std::runtime_error("deserialize_shock: truncated body");

  out.storage = sg::GridStorage(d);
  out.storage.reserve(nno);
  sg::MultiIndex mi(static_cast<std::size_t>(d));
  std::size_t pos = 4;
  for (std::uint32_t p = 0; p < nno; ++p) {
    for (int t = 0; t < d; ++t) {
      mi[static_cast<std::size_t>(t)].l = static_cast<sg::level_t>(blob[pos++]);
      mi[static_cast<std::size_t>(t)].i = static_cast<sg::index_t>(blob[pos++]);
    }
    out.storage.insert(mi);
  }
  out.surpluses.assign(blob.begin() + static_cast<std::ptrdiff_t>(pos),
                       blob.begin() + static_cast<std::ptrdiff_t>(need));
  out.consumed = need;
  return out;
}

/// Builds one state's grid within a group communicator. Returns the storage
/// and final surpluses (identical on every group rank).
struct BuiltState {
  sg::GridStorage storage{1};
  std::vector<double> surpluses;
  std::uint32_t failures = 0;
};

BuiltState build_state_distributed(SimComm group, int z, const core::DynamicModel& model,
                                   const PolicyEvaluator& p_next,
                                   const DistributedOptions& opts,
                                   core::IterationStats& stats) {
  const int d = model.state_dim();
  const int nd = model.ndofs();
  const int nd_ind = model.indicator_dofs();

  BuiltState built;
  built.storage = sg::GridStorage(d);
  sg::GridStorage& storage = built.storage;

  sg::DenseGridData dense;
  dense.dim = d;
  dense.ndofs = nd;

  std::vector<double> dof_scale(static_cast<std::size_t>(nd_ind), 0.0);
  bool scales_ready = false;
  std::vector<double> last_indicators;
  std::uint32_t last_first = 0;
  double linf = stats.policy_change_linf;
  double l2sum = 0.0;

  for (int level = 1; level <= opts.max_level; ++level) {
    const std::uint32_t n_known = storage.size();
    if (level <= opts.base_level) {
      sg::append_level_increment(storage, level);
    } else {
      if (opts.refine_epsilon <= 0.0) break;
      const sg::RefinementOptions ropts{opts.refine_epsilon, opts.max_level, true};
      sg::refine_by_surplus(storage, last_first, last_indicators, ropts);
    }
    const std::uint32_t n_new = storage.size() - n_known;
    if (n_new == 0) break;

    const auto flat = storage.flat_pairs();
    dense.pairs.assign(flat.begin(), flat.end());
    dense.nno = storage.size();
    dense.surplus.resize(static_cast<std::size_t>(dense.nno) * nd, 0.0);

    // Block partition of the level's points over group ranks.
    const Range mine = block_partition(n_new, group.size(), group.rank());
    const auto nmine = static_cast<std::size_t>(mine.size());
    const auto sd = static_cast<std::size_t>(d);
    const auto snd = static_cast<std::size_t>(nd);
    std::vector<double> my_values(nmine * snd, 0.0);

    // Warm starts for the rank's whole block, evaluated en bloc through the
    // batched entry point — the same offload pipeline as the single-node
    // driver (AsgPolicy chunks the run into ticketed device batches when a
    // dispatcher is attached).
    const util::Timer solve_timer;
    std::vector<double> xs(nmine * sd);
    std::vector<double> warm_values(nmine * snd);
    for (std::size_t k = 0; k < nmine; ++k) {
      const auto id = static_cast<std::uint32_t>(n_known + mine.begin + k);
      const std::vector<double> x_unit = storage.coordinates(id);
      std::copy(x_unit.begin(), x_unit.end(), xs.begin() + static_cast<std::ptrdiff_t>(k * sd));
    }
    p_next.evaluate_batch(z, xs, warm_values, nmine);
    stats.interpolations += nmine;

    for (std::uint64_t k = mine.begin; k < mine.end; ++k) {
      const std::size_t local = static_cast<std::size_t>(k - mine.begin);
      const std::span<const double> x_unit(xs.data() + local * sd, sd);
      const std::span<const double> warm(warm_values.data() + local * snd, snd);
      core::PointSolveResult res = model.solve_point(z, x_unit, p_next, warm);
      if (!res.converged) ++built.failures;
      stats.interpolations += static_cast<std::uint64_t>(res.interpolations);
      stats.solver_gathers += static_cast<std::uint64_t>(res.gathers);
      stats.record_jacobian(res.jacobian);
      std::copy(res.dofs.begin(), res.dofs.end(),
                my_values.begin() + static_cast<std::ptrdiff_t>((k - mine.begin) * nd));

      for (int dof = 0; dof < nd_ind; ++dof) {
        const double diff = std::fabs(res.dofs[static_cast<std::size_t>(dof)] -
                                      warm[static_cast<std::size_t>(dof)]) /
                            (1.0 + std::fabs(warm[static_cast<std::size_t>(dof)]));
        linf = std::max(linf, diff);
        l2sum += diff * diff;
      }
    }
    stats.solve_seconds += solve_timer.seconds();

    // Merge the level's nodal values within the group (Fig. 2 "merge").
    const std::vector<double> all_values = group.allgatherv(my_values);
    if (all_values.size() != static_cast<std::size_t>(n_new) * nd)
      throw std::runtime_error("distributed merge: size mismatch");
    std::copy(all_values.begin(), all_values.end(), dense.surplus_row(n_known));

    {
      const util::ScopedAccumulator acc(stats.hierarchize_seconds);
      sg::hierarchize_tail(dense, n_known);
    }

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

  stats.policy_change_linf = linf;
  stats.policy_change_l2 += l2sum;  // normalized by the caller
  built.surpluses.assign(dense.surplus.begin(), dense.surplus.end());
  return built;
}

}  // namespace

std::shared_ptr<AsgPolicy> distributed_step(SimComm world, const core::DynamicModel& model,
                                            const PolicyEvaluator& p_next,
                                            const std::vector<std::uint64_t>& workload,
                                            const DistributedOptions& options,
                                            core::IterationStats& stats) {
  const util::Timer timer;
  const int Ns = model.num_shocks();
  const int nranks = world.size();

  // Strict per-step reporting (cf. TimeIterationDriver::step): zero the
  // accumulators, then report this rank's offload/gather contribution as a
  // delta of p_next's cumulative counters.
  stats.reset_for_step();
  const auto* prev_asg = dynamic_cast<const AsgPolicy*>(&p_next);
  const parallel::DispatcherStats device_before =
      prev_asg ? prev_asg->device_stats() : parallel::DispatcherStats{};
  const core::GatherStats gather_before =
      prev_asg ? prev_asg->gather_stats() : core::GatherStats{};

  // State-to-rank mapping: proportional groups when ranks are plentiful,
  // round-robin state sharing otherwise.
  std::vector<int> my_states;
  SimComm group = world;
  if (nranks >= Ns) {
    const std::vector<int> sizes = proportional_group_sizes(workload, nranks);
    const std::vector<int> colors = rank_colors(sizes);
    const int color = colors[static_cast<std::size_t>(world.rank())];
    group = world.split(color, world.rank());
    my_states.push_back(color);
  } else {
    const int color = world.rank();
    group = world.split(color, 0);  // singleton group
    for (int z = world.rank(); z < Ns; z += nranks) my_states.push_back(z);
  }

  // Build owned states and serialize them.
  std::vector<double> my_blob;
  for (const int z : my_states) {
    BuiltState built = build_state_distributed(group, z, model, p_next, options, stats);
    stats.solver_failures += built.failures;
    // Group rank 0 contributes the state to the world exchange; others send
    // nothing (their copy is identical).
    if (group.rank() == 0) {
      const std::vector<double> blob =
          serialize_shock(z, built.storage, model.ndofs(), built.surpluses);
      my_blob.insert(my_blob.end(), blob.begin(), blob.end());
    }
  }

  // World-wide policy merge.
  const std::vector<double> all_blobs = world.allgatherv(my_blob);
  std::vector<std::unique_ptr<core::ShockGrid>> grids(static_cast<std::size_t>(Ns));
  std::size_t pos = 0;
  while (pos < all_blobs.size()) {
    DeserializedShock shock =
        deserialize_shock(std::span<const double>(all_blobs).subspan(pos));
    pos += shock.consumed;
    grids[static_cast<std::size_t>(shock.state)] = std::make_unique<core::ShockGrid>(
        shock.storage, model.ndofs(), shock.surpluses, options.kernel);
  }
  for (int z = 0; z < Ns; ++z)
    if (grids[static_cast<std::size_t>(z)] == nullptr)
      throw std::runtime_error("distributed_step: state missing after merge");

  world.barrier();  // footnote 4's MPI_Barrier(MPI_COMM_WORLD)

  if (prev_asg) {
    stats.record_device_delta(prev_asg->device_stats().since(device_before));
    stats.record_gather_delta(prev_asg->gather_stats().since(gather_before));
  }

  auto policy = std::make_shared<AsgPolicy>(model.ndofs(), std::move(grids));
  // One dispatcher per rank — each in-process rank models a hybrid node
  // with its own accelerator, exactly like the single-node driver.
  if (options.use_device) policy->attach_default_device(options.device_kernel, options.offload);
  stats.total_points = policy->total_points();
  stats.points_per_shock = policy->points_per_shock();
  const double cells = static_cast<double>(stats.total_points) * model.indicator_dofs();
  // Each rank saw only its share of the change; take the world max/sum.
  stats.policy_change_linf = world.allreduce_max(stats.policy_change_linf);
  stats.policy_change_l2 = world.allreduce_sum(stats.policy_change_l2);
  if (cells > 0.0) stats.policy_change_l2 = std::sqrt(stats.policy_change_l2 / cells);
  stats.seconds = timer.seconds();
  return policy;
}

DistributedResult run_distributed_time_iteration(SimComm world, const core::DynamicModel& model,
                                                 const DistributedOptions& options) {
  DistributedResult result;
  const core::InitialPolicyEvaluator initial(model);
  const PolicyEvaluator* p_next = &initial;
  std::shared_ptr<AsgPolicy> current;

  std::vector<std::uint64_t> workload(static_cast<std::size_t>(model.num_shocks()), 1);
  for (int it = 0; it < options.max_iterations; ++it) {
    core::IterationStats stats;
    stats.iteration = it;
    std::shared_ptr<AsgPolicy> next =
        distributed_step(world, model, *p_next, workload, options, stats);
    result.history.push_back(stats);

    const auto per_shock = next->points_per_shock();
    workload.assign(per_shock.begin(), per_shock.end());

    current = std::move(next);
    p_next = current.get();
    if (it > 0 && stats.policy_change_linf < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.policy = std::move(current);
  return result;
}

}  // namespace hddm::cluster
