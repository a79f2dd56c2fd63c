// Distributed time iteration over the in-process cluster runtime — the full
// Fig. 2 control flow.
//
// Per time step, every rank:
//   1. sizes the per-state MPI groups proportionally to the previous
//      iteration's grid sizes (Sec. IV-A) and splits the world communicator;
//   2. builds its state's ASG with the shared level builder
//      (core/level_builder.hpp), choosing the distributed solve stage: each
//      level's new points are block-partitioned over the group's ranks, each
//      rank solves its block serially (given p_next), and the nodal values
//      are allgathered within the group; hierarchization and (deterministic)
//      adaptive refinement then run redundantly on every group rank, keeping
//      the grids bit-identical without further communication;
//   3. serializes its state's finished dense grid and exchanges it
//      world-wide (the "merge policy" step); every rank adopts the received
//      dense grids as-is, so it holds the complete policy
//      p = (p(1), ..., p(Ns)) for the next iteration;
//   4. synchronizes on a world barrier (footnote 4).
//
// With fewer ranks than states, a rank serializes several states (each rank
// forms a singleton group per state). On one rank the step equals
// core::TimeIterationDriver::step bit for bit: same surpluses, counters and
// policy-change norms. Invalid level options throw std::invalid_argument on
// every rank from the builder, before any level communication.
#pragma once

#include <functional>
#include <memory>

#include "cluster/sim_comm.hpp"
#include "core/model.hpp"
#include "core/policy.hpp"
#include "core/time_iteration.hpp"

namespace hddm::cluster {

struct DistributedOptions {
  int base_level = 2;
  double refine_epsilon = 0.0;  ///< <= 0: regular grid only
  int max_level = 6;
  int max_iterations = 50;
  double tolerance = 1e-4;
  kernels::KernelKind kernel = kernels::KernelKind::X86;
  /// Per-rank batched device offload, inheriting the single-node pipeline:
  /// every rank attaches its own dispatcher (one accelerator per node) to
  /// the merged policy, and warm-start interpolations of the rank's point
  /// block go through AsgPolicy::evaluate_batch en bloc.
  bool use_device = false;
  kernels::KernelKind device_kernel = kernels::KernelKind::SimGpu;
  parallel::DispatcherOptions offload;  ///< dispatcher knobs (batch, capacity)
};

struct DistributedResult {
  std::shared_ptr<core::AsgPolicy> policy;  ///< identical on every rank
  std::vector<core::IterationStats> history;
  bool converged = false;
};

/// Runs time iteration on an existing communicator (call from SimCluster
/// rank_main). Every rank returns the same converged policy.
DistributedResult run_distributed_time_iteration(SimComm world, const core::DynamicModel& model,
                                                 const DistributedOptions& options);

/// Executes a single distributed policy update; exposed for scaling tests.
std::shared_ptr<core::AsgPolicy> distributed_step(SimComm world, const core::DynamicModel& model,
                                                  const core::PolicyEvaluator& p_next,
                                                  const std::vector<std::uint64_t>& workload,
                                                  const DistributedOptions& options,
                                                  core::IterationStats& stats);

}  // namespace hddm::cluster
