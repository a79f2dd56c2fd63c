#include "cluster/distributed_ti.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "cluster/sim_comm.hpp"
#include "olg/olg_model.hpp"

namespace hddm::cluster {
namespace {

olg::OlgModel small_model() {
  return olg::OlgModel(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
}

TEST(DistributedTi, SingleRankMatchesSingleProcessDriver) {
  const olg::OlgModel model = small_model();

  // Distributed run on one rank.
  DistributedOptions dopts;
  dopts.base_level = 2;
  dopts.max_iterations = 6;
  dopts.tolerance = 0.0;
  std::vector<core::IterationStats> dist_history;
  SimCluster::run(1, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, dopts);
    dist_history = r.history;
  });

  // Reference: the shared-memory driver with identical settings.
  core::TimeIterationOptions sopts;
  sopts.base_level = 2;
  sopts.max_iterations = 6;
  sopts.tolerance = 0.0;
  const auto ref = core::solve_time_iteration(model, sopts);

  ASSERT_EQ(dist_history.size(), ref.history.size());
  for (std::size_t it = 0; it < dist_history.size(); ++it) {
    EXPECT_NEAR(dist_history[it].policy_change_linf, ref.history[it].policy_change_linf, 1e-10)
        << "iteration " << it;
    EXPECT_EQ(dist_history[it].total_points, ref.history[it].total_points);
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

  DistributedOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;

  // Baseline with 1 rank.
  std::vector<double> baseline;
  SimCluster::run(1, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    std::vector<double> v(static_cast<std::size_t>(model.ndofs()));
    r.policy->evaluate(0, std::vector<double>(3, 0.5), v);
    baseline = v;
  });

  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(nranks));
  SimCluster::run(nranks, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    std::vector<double> v(static_cast<std::size_t>(model.ndofs()));
    r.policy->evaluate(0, std::vector<double>(3, 0.5), v);
    per_rank[static_cast<std::size_t>(world.rank())] = v;
  });

  for (int rank = 0; rank < nranks; ++rank) {
    ASSERT_EQ(per_rank[static_cast<std::size_t>(rank)].size(), baseline.size());
    for (std::size_t k = 0; k < baseline.size(); ++k)
      EXPECT_NEAR(per_rank[static_cast<std::size_t>(rank)][k], baseline[k], 1e-10)
          << "rank " << rank << " dof " << k;
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
