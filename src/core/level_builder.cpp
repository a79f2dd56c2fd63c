#include "core/level_builder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/regular.hpp"
#include "util/timer.hpp"

namespace hddm::core {

namespace {

/// What one point solve contributes to IterationStats.
struct PointRecord {
  bool failed = false;
  int interpolations = 0;
  int gathers = 0;
  solver::JacobianStats jacobian;
  double linf = 0.0;  ///< max normalized change against the warm start
  double l2 = 0.0;    ///< sum of squared normalized changes
};

void run(const sg::ForEach& for_each, std::size_t n, const std::function<void(std::size_t)>& body) {
  if (for_each) {
    for_each(n, body);
  } else {
    for (std::size_t k = 0; k < n; ++k) body(k);
  }
}

}  // namespace

void LevelPlan::validate() const {
  if (base_level < 1) throw std::invalid_argument("LevelPlan: base_level must be >= 1");
  if (max_level < base_level)
    throw std::invalid_argument("LevelPlan: max_level must be >= base_level");
}

sg::DenseGridData build_shock_grid(const DynamicModel& model, int z, const PolicyEvaluator& p_next,
                                   const LevelPlan& plan, IterationStats& stats) {
  plan.validate();
  const int d = model.state_dim();
  const int nd = model.ndofs();
  const int nd_ind = model.indicator_dofs();
  const auto sd = static_cast<std::size_t>(d);
  const auto snd = static_cast<std::size_t>(nd);

  sg::GridStorage storage(d);
  sg::DenseGridData dense;
  dense.dim = d;
  dense.ndofs = nd;

  // Per-dof normalization scales for the refinement indicator, measured from
  // the base-level nodal values (policy coefficients differ in magnitude
  // across ages). Only the leading indicator_dofs() drive refinement and the
  // convergence metric.
  std::vector<double> dof_scale;        // empty until the first level is in
  std::vector<double> last_indicators;  // g(alpha) of the newest level's points
  std::uint32_t last_first = 0;         // first id of the newest level
  std::vector<PointRecord> records;

  for (int level = 1; level <= plan.max_level; ++level) {
    const std::uint32_t n_known = storage.size();
    if (level <= plan.base_level) {
      sg::append_level_increment(storage, level);
    } else {
      if (plan.refine_epsilon <= 0.0) break;
      const sg::RefinementOptions ropts{plan.refine_epsilon, plan.max_level, true};
      sg::refine_by_surplus(storage, last_first, last_indicators, ropts);
    }
    const std::uint32_t n_new = storage.size() - n_known;
    if (n_new == 0) break;

    // Extend the dense mirror with the new points' pairs and empty rows.
    const auto flat = storage.flat_pairs();
    dense.pairs.assign(flat.begin(), flat.end());
    dense.nno = storage.size();
    dense.surplus.resize(static_cast<std::size_t>(dense.nno) * snd, 0.0);
    double* const level_rows = dense.surplus_row(n_known);

    const auto [begin, end] =
        plan.share ? plan.share(n_new) : std::pair<std::size_t, std::size_t>{0, n_new};
    const std::size_t n_mine = end - begin;

    // --- Solve the equilibrium at this process's new points (the Fig. 2
    // inner loop).
    {
      const util::ScopedAccumulator acc(stats.solve_seconds);

      // Warm starts = p_next at the points, evaluated through the batched
      // entry point in warm_chunk-sized chunks — each chunk is one device
      // ticket drained in a single launch (CPU-kernel fallback when the
      // queue is full). The coordinate gather runs inside the chunks too, so
      // no serial O(n_new) section precedes the solves.
      std::vector<double> xs(n_mine * sd);
      std::vector<double> warm(n_mine * snd);
      const std::size_t chunk = std::max<std::size_t>(plan.warm_chunk, 1);
      run(plan.solve_for_each, (n_mine + chunk - 1) / chunk, [&](std::size_t ci) {
        const std::size_t first = ci * chunk;
        const std::size_t len = std::min(chunk, n_mine - first);
        for (std::size_t k = first; k < first + len; ++k) {
          const std::vector<double> x_unit =
              storage.coordinates(static_cast<std::uint32_t>(n_known + begin + k));
          std::copy(x_unit.begin(), x_unit.end(), xs.begin() + static_cast<std::ptrdiff_t>(k * sd));
        }
        p_next.evaluate_batch(z, std::span<const double>(xs).subspan(first * sd, len * sd),
                              std::span<double>(warm).subspan(first * snd, len * snd), len);
      });
      stats.interpolations += n_mine;

      records.assign(n_mine, PointRecord{});
      run(plan.solve_for_each, n_mine, [&](std::size_t k) {
        const std::span<const double> x_unit(xs.data() + k * sd, sd);
        const std::span<const double> w(warm.data() + k * snd, snd);
        const PointSolveResult res = model.solve_point(z, x_unit, p_next, w);
        std::copy(res.dofs.begin(), res.dofs.end(), level_rows + (begin + k) * snd);

        PointRecord& rec = records[k];
        rec.failed = !res.converged;
        rec.interpolations = res.interpolations;
        rec.gathers = res.gathers;
        rec.jacobian = res.jacobian;
        // Policy-change metric: normalized difference to p_next at the point.
        for (int dof = 0; dof < nd_ind; ++dof) {
          const auto u = static_cast<std::size_t>(dof);
          const double diff = std::fabs(res.dofs[u] - w[u]) / (1.0 + std::fabs(w[u]));
          rec.linf = std::max(rec.linf, diff);
          rec.l2 += diff * diff;
        }
      });

      // Fixed-order reduction: the runner's scheduling cannot reach the sums.
      for (const PointRecord& rec : records) {
        stats.solver_failures += rec.failed ? 1 : 0;
        stats.interpolations += static_cast<std::uint64_t>(rec.interpolations);
        stats.solver_gathers += static_cast<std::uint64_t>(rec.gathers);
        stats.record_jacobian(rec.jacobian);
        stats.policy_change_linf = std::max(stats.policy_change_linf, rec.linf);
        stats.policy_change_l2 += rec.l2;
      }
    }

    if (plan.merge)
      plan.merge(std::span<const double>(level_rows + begin * snd, n_mine * snd),
                 std::span<double>(level_rows, n_new * snd));

    // --- Hierarchize the new nodal values into surpluses (bitwise the
    // serial result under any runner).
    {
      const util::ScopedAccumulator acc(stats.hierarchize_seconds);
      sg::hierarchize_tail(dense, n_known, plan.hierarchize_for_each);
    }

    // --- Refinement indicators for the next round.
    if (dof_scale.empty()) {
      dof_scale.assign(static_cast<std::size_t>(nd_ind), 0.0);
      for (std::uint32_t p = 0; p < dense.nno; ++p) {
        const double* row = dense.surplus_row(p);
        for (int dof = 0; dof < nd_ind; ++dof)
          dof_scale[static_cast<std::size_t>(dof)] =
              std::max(dof_scale[static_cast<std::size_t>(dof)], std::fabs(row[dof]));
      }
      for (double& s : dof_scale) s = std::max(s, 1e-8);
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
  return dense;
}

}  // namespace hddm::core
