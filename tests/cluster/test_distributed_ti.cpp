#include "cluster/distributed_ti.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string>

#include "cluster/sim_comm.hpp"
#include "olg/olg_model.hpp"

namespace hddm::cluster {
namespace {

olg::OlgModel small_model() {
  return olg::OlgModel(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
}

/// The regular and the adaptive level schedules the parity tests run.
std::vector<DistributedOptions> parity_inputs(int max_iterations) {
  DistributedOptions regular;
  regular.base_level = 2;
  regular.max_iterations = max_iterations;
  regular.tolerance = 0.0;
  DistributedOptions adaptive = regular;
  adaptive.refine_epsilon = 1e-2;
  adaptive.max_level = 4;
  return {regular, adaptive};
}

/// Every shock's pairs equal and surpluses equal byte for byte.
void expect_same_grids(const core::AsgPolicy& a, const core::AsgPolicy& b) {
  ASSERT_EQ(a.num_shocks(), b.num_shocks());
  for (int z = 0; z < a.num_shocks(); ++z) {
    const sg::DenseGridData& da = a.grid(z).dense();
    const sg::DenseGridData& db = b.grid(z).dense();
    ASSERT_EQ(da.pairs, db.pairs) << "shock " << z;
    ASSERT_EQ(da.surplus.size(), db.surplus.size()) << "shock " << z;
    EXPECT_EQ(std::memcmp(da.surplus.data(), db.surplus.data(), da.surplus.size() * sizeof(double)),
              0)
        << "shock " << z;
  }
}

TEST(DistributedTi, SingleRankMatchesSingleProcessDriver) {
  const olg::OlgModel model = small_model();
  for (const DistributedOptions& dopts : parity_inputs(6)) {
    SCOPED_TRACE(dopts.refine_epsilon > 0.0 ? "adaptive" : "regular");

    // Distributed run on one rank.
    DistributedResult dist;
    SimCluster::run(1, [&](SimComm world) {
      dist = run_distributed_time_iteration(world, model, dopts);
    });

    // Reference: the shared-memory driver with identical settings on a
    // multi-threaded pool.
    core::TimeIterationOptions sopts;
    sopts.base_level = dopts.base_level;
    sopts.refine_epsilon = dopts.refine_epsilon;
    sopts.max_level = dopts.max_level;
    sopts.max_iterations = dopts.max_iterations;
    sopts.tolerance = dopts.tolerance;
    sopts.threads = 4;
    const auto ref = core::solve_time_iteration(model, sopts);

    ASSERT_EQ(dist.history.size(), ref.history.size());
    for (std::size_t it = 0; it < dist.history.size(); ++it) {
      SCOPED_TRACE("iteration " + std::to_string(it));
      const core::IterationStats& d = dist.history[it];
      const core::IterationStats& r = ref.history[it];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.policy_change_linf),
                std::bit_cast<std::uint64_t>(r.policy_change_linf));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.policy_change_l2),
                std::bit_cast<std::uint64_t>(r.policy_change_l2));
      EXPECT_EQ(d.total_points, r.total_points);
      EXPECT_EQ(d.solver_failures, r.solver_failures);
      EXPECT_EQ(d.interpolations, r.interpolations);
      EXPECT_EQ(d.solver_gathers, r.solver_gathers);
      EXPECT_EQ(d.policy_gathers, r.policy_gathers);
      EXPECT_EQ(d.gathered_requests, r.gathered_requests);
      EXPECT_EQ(d.jacobian_mode, r.jacobian_mode);
      EXPECT_EQ(d.jacobian_refreshes_analytic, r.jacobian_refreshes_analytic);
      EXPECT_EQ(d.jacobian_refreshes_fd, r.jacobian_refreshes_fd);
      EXPECT_EQ(d.jacobian_columns_analytic, r.jacobian_columns_analytic);
      EXPECT_EQ(d.jacobian_columns_fd, r.jacobian_columns_fd);
    }
    expect_same_grids(*dist.policy, *ref.policy);
  }
}

TEST(DistributedTi, RejectsBadOptions) {
  // Checked by the level builder on every rank before any level's
  // communication, so each rank throws instead of building an empty or a
  // capped grid.
  const olg::OlgModel model = small_model();
  DistributedOptions no_base;
  no_base.base_level = 0;
  DistributedOptions cap_below_base;
  cap_below_base.base_level = 3;
  cap_below_base.max_level = 2;
  for (const DistributedOptions& opts : {no_base, cap_below_base}) {
    for (const int nranks : {1, 3}) {
      EXPECT_THROW(SimCluster::run(nranks,
                                   [&](SimComm world) {
                                     (void)run_distributed_time_iteration(world, model, opts);
                                   }),
                   std::invalid_argument)
          << "base_level " << opts.base_level << ", max_level " << opts.max_level << ", "
          << nranks << " ranks";
    }
  }
}

TEST(DistributedTi, ReportsSolveAndHierarchizeSeconds) {
  // Each rank times its own point solves (warm starts included, as in the
  // single-process driver) and its hierarchization; both are parts of the
  // step's wall time.
  const olg::OlgModel model = small_model();
  DistributedOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  std::mutex mu;
  std::vector<core::IterationStats> all;
  SimCluster::run(3, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    const std::lock_guard<std::mutex> lock(mu);
    all.insert(all.end(), r.history.begin(), r.history.end());
  });
  ASSERT_EQ(all.size(), 9u);
  for (const core::IterationStats& st : all) {
    EXPECT_GT(st.solve_seconds, 0.0) << "iteration " << st.iteration;
    EXPECT_GT(st.hierarchize_seconds, 0.0) << "iteration " << st.iteration;
    EXPECT_LE(st.solve_seconds + st.hierarchize_seconds, st.seconds)
        << "iteration " << st.iteration;
  }
}

class DistributedRankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRankCountTest, PolicyIndependentOfRankCount) {
  const int nranks = GetParam();
  const olg::OlgModel model = small_model();

  for (const DistributedOptions& opts : parity_inputs(4)) {
    SCOPED_TRACE(opts.refine_epsilon > 0.0 ? "adaptive" : "regular");

    // Baseline with 1 rank.
    std::shared_ptr<core::AsgPolicy> baseline;
    SimCluster::run(1, [&](SimComm world) {
      baseline = run_distributed_time_iteration(world, model, opts).policy;
    });

    std::vector<std::shared_ptr<core::AsgPolicy>> per_rank(static_cast<std::size_t>(nranks));
    SimCluster::run(nranks, [&](SimComm world) {
      per_rank[static_cast<std::size_t>(world.rank())] =
          run_distributed_time_iteration(world, model, opts).policy;
    });

    for (int rank = 0; rank < nranks; ++rank) {
      SCOPED_TRACE("rank " + std::to_string(rank));
      expect_same_grids(*per_rank[static_cast<std::size_t>(rank)], *baseline);
    }
  }
}

// 2 states: 1 rank (serial), 2 ranks (one per state), 3 ranks (proportional
// split), 4 ranks (two per state).
INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRankCountTest, ::testing::Values(2, 3, 4));

TEST(DistributedTi, ConvergesOnSmallOlg) {
  const olg::OlgModel model = small_model();
  DistributedOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 80;
  opts.tolerance = 1e-3;
  SimCluster::run(2, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.policy->num_shocks(), model.num_shocks());
  });
}

TEST(DistributedTi, DeviceOffloadInheritsBatchedPipeline) {
  const olg::OlgModel model = small_model();
  DistributedOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;

  std::vector<double> cpu_policy;
  SimCluster::run(2, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    if (world.rank() == 0) {
      std::vector<double> v(static_cast<std::size_t>(model.ndofs()));
      r.policy->evaluate(0, std::vector<double>(3, 0.5), v);
      cpu_policy = v;
    }
  });

  DistributedOptions dopts = opts;
  dopts.use_device = true;
  dopts.offload.max_batch = 8;
  std::vector<double> dev_policy;
  std::uint64_t offloaded = 0, batches = 0;
  SimCluster::run(2, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, dopts);
    if (world.rank() == 0) {
      std::vector<double> v(static_cast<std::size_t>(model.ndofs()));
      r.policy->evaluate(0, std::vector<double>(3, 0.5), v);
      dev_policy = v;
      for (const auto& st : r.history) {
        offloaded += st.device_offloaded;
        batches += st.device_batches;
      }
    }
  });

  // Same converged policy (device kernel is numerically equivalent), and the
  // per-rank dispatcher really served batched warm starts.
  ASSERT_EQ(dev_policy.size(), cpu_policy.size());
  for (std::size_t k = 0; k < cpu_policy.size(); ++k)
    EXPECT_NEAR(dev_policy[k], cpu_policy[k], 1e-8) << "dof " << k;
  EXPECT_GT(offloaded, 0u);
  EXPECT_GT(batches, 0u);
  EXPECT_GT(static_cast<double>(offloaded) / static_cast<double>(batches), 1.0);
}

TEST(DistributedTi, AdaptiveRefinementStaysConsistentAcrossRanks) {
  const olg::OlgModel model = small_model();
  DistributedOptions opts;
  opts.base_level = 2;
  opts.refine_epsilon = 1e-2;
  opts.max_level = 4;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;

  std::vector<std::uint32_t> points_by_rank(4, 0);
  SimCluster::run(4, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    points_by_rank[static_cast<std::size_t>(world.rank())] = r.policy->total_points();
  });
  for (int rank = 1; rank < 4; ++rank)
    EXPECT_EQ(points_by_rank[static_cast<std::size_t>(rank)], points_by_rank[0]);
}

}  // namespace
}  // namespace hddm::cluster
