#include "cluster/distributed_ti.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "cluster/group_assign.hpp"
#include "core/level_builder.hpp"
#include "util/timer.hpp"

namespace hddm::cluster {

namespace {

using core::AsgPolicy;
using core::PolicyEvaluator;

/// Flat double encoding of a finished shock grid:
/// [state, nno, dim, ndofs, pairs(l,i as doubles)..., surpluses...].
void serialize_shock(int state, const sg::DenseGridData& grid, std::vector<double>& blob) {
  blob.push_back(static_cast<double>(state));
  blob.push_back(static_cast<double>(grid.nno));
  blob.push_back(static_cast<double>(grid.dim));
  blob.push_back(static_cast<double>(grid.ndofs));
  for (const sg::LevelIndex& li : grid.pairs) {
    blob.push_back(static_cast<double>(li.l));
    blob.push_back(static_cast<double>(li.i));
  }
  blob.insert(blob.end(), grid.surplus.begin(), grid.surplus.end());
}

/// Decodes one serialize_shock() record at the front of `blob` into a dense
/// grid (point order preserved) and advances `blob` past it.
sg::DenseGridData deserialize_shock(std::span<const double>& blob, int& state) {
  if (blob.size() < 4) throw std::runtime_error("distributed merge: truncated header");
  state = static_cast<int>(blob[0]);
  sg::DenseGridData grid;
  grid.nno = static_cast<std::uint32_t>(blob[1]);
  grid.dim = static_cast<int>(blob[2]);
  grid.ndofs = static_cast<int>(blob[3]);
  const std::size_t npairs = static_cast<std::size_t>(grid.nno) * static_cast<std::size_t>(grid.dim);
  const std::size_t nsurplus =
      static_cast<std::size_t>(grid.nno) * static_cast<std::size_t>(grid.ndofs);
  if (blob.size() < 4 + 2 * npairs + nsurplus)
    throw std::runtime_error("distributed merge: truncated body");

  grid.pairs.resize(npairs);
  for (std::size_t k = 0; k < npairs; ++k)
    grid.pairs[k] = {static_cast<sg::level_t>(blob[4 + 2 * k]),
                     static_cast<sg::index_t>(blob[5 + 2 * k])};
  const auto surplus = blob.subspan(4 + 2 * npairs, nsurplus);
  grid.surplus.assign(surplus.begin(), surplus.end());
  blob = blob.subspan(4 + 2 * npairs + nsurplus);
  return grid;
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

  // The group's ranks solve block partitions of every level's new points on
  // one thread each and allgather the nodal rows; the rest of the level loop
  // runs redundantly on every group rank.
  core::LevelPlan plan;
  plan.base_level = options.base_level;
  plan.refine_epsilon = options.refine_epsilon;
  plan.max_level = options.max_level;
  plan.warm_chunk = options.offload.max_batch;
  plan.share = [&group](std::size_t n_new) {
    const Range r = block_partition(n_new, group.size(), group.rank());
    return std::pair<std::size_t, std::size_t>{r.begin, r.end};
  };
  plan.merge = [&group](std::span<const double> mine, std::span<double> level) {
    const std::vector<double> all = group.allgatherv(mine);
    if (all.size() != level.size()) throw std::runtime_error("distributed merge: size mismatch");
    std::copy(all.begin(), all.end(), level.begin());
  };

  // Build owned states; group rank 0 contributes each to the world exchange
  // (the other group ranks hold identical copies and send nothing).
  std::vector<double> my_blob;
  for (const int z : my_states) {
    const sg::DenseGridData grid = core::build_shock_grid(model, z, p_next, plan, stats);
    if (group.rank() == 0) serialize_shock(z, grid, my_blob);
  }

  // World-wide policy merge: every rank adopts every state's dense grid.
  const std::vector<double> all_blobs = world.allgatherv(my_blob);
  std::vector<std::unique_ptr<core::ShockGrid>> grids(static_cast<std::size_t>(Ns));
  for (std::span<const double> rest(all_blobs); !rest.empty();) {
    int state = 0;
    sg::DenseGridData grid = deserialize_shock(rest, state);
    grids[static_cast<std::size_t>(state)] =
        std::make_unique<core::ShockGrid>(std::move(grid), options.kernel);
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
