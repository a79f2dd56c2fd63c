// The level loop of Fig. 2 / Sec. IV-A: one shock's adaptive sparse grid,
// built level by level — the one builder both time-iteration drivers call.
//
// Each round appends the next regular level (up to the base level) or refines
// the newest level where its surplus indicator reaches epsilon (up to the
// level cap), solves the equilibrium at the round's new points given p_next
// (warm-started from p_next itself), hierarchizes the new nodal values into
// surpluses, and derives the next round's refinement indicators. The hybrid
// scheme only changes who solves which points, so a driver chooses exactly
// three things in its LevelPlan:
//   - `share`: the sub-range of a level's new points this process solves
//     (all of them on one node, the rank's block of the MPI group's
//     partition on a cluster);
//   - `solve_for_each`: the runner of the warm-start chunks and point solves
//     (the node's work-stealing pool, or serial);
//   - `merge`: how the level's nodal rows are completed after the local
//     solves (nothing, or an allgatherv within the group).
// Everything after the merge — hierarchization, indicators, refinement —
// runs redundantly on every process, so all group members hold bit-identical
// grids without further communication.
//
// Per-point accounting is written once: each solve fills its own record slot
// (failure, interpolations, gathers, Jacobian counters, and the change
// against the warm start), and the builder reduces the records into
// IterationStats in point order afterwards. Every counter and both
// policy-change norms are therefore independent of the runner's scheduling
// (DESIGN.md, 'Level builder').
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>

#include "core/model.hpp"
#include "core/time_iteration.hpp"
#include "sparse_grid/dense_format.hpp"
#include "sparse_grid/hierarchize.hpp"

namespace hddm::core {

/// Explicit inputs of one shock's level build besides the model and p_next.
struct LevelPlan {
  /// Regular sparse-grid level built unconditionally.
  int base_level = 2;
  /// Adaptive refinement threshold epsilon; <= 0 disables adaptivity.
  double refine_epsilon = 0.0;
  /// Level cap for adaptive refinement.
  int max_level = 6;
  /// Points per warm-start evaluate_batch call — one device ticket each (the
  /// driver's offload.max_batch).
  std::size_t warm_chunk = 256;

  /// Half-open [begin, end) of a level's n_new new points this process
  /// solves; empty: all of them.
  std::function<std::pair<std::size_t, std::size_t>(std::size_t n_new)> share;
  /// Runner of the warm-start chunks and the point solves; empty: serial.
  sg::ForEach solve_for_each;
  /// Completes the level's nodal rows (`level`, n_new x ndofs, point-major)
  /// after this process filled its share (`mine`, a sub-span of `level`);
  /// empty: this process solved every point.
  std::function<void(std::span<const double> mine, std::span<double> level)> merge;
  /// Runner of each level-sum batch of the hierarchization; empty: serial.
  sg::ForEach hierarchize_for_each;

  /// Throws std::invalid_argument unless 1 <= base_level <= max_level.
  void validate() const;
};

/// Builds shock z's grid for the policy update given p_next and returns its
/// finished dense form (pairs in GridStorage insertion order, hierarchical
/// surpluses), ready for ShockGrid(DenseGridData, kind). Accumulates into
/// `stats` this process's point-solve counters, the policy-change norms
/// (max for linf; the un-normalized sum of squares for l2, which the driver
/// turns into an RMS), and solve_seconds / hierarchize_seconds.
sg::DenseGridData build_shock_grid(const DynamicModel& model, int z, const PolicyEvaluator& p_next,
                                   const LevelPlan& plan, IterationStats& stats);

}  // namespace hddm::core
