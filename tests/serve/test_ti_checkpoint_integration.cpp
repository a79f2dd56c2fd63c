// Integration: checkpoint/restart of the time-iteration protocol — snapshot
// a mid-run policy, reload it in a "fresh process" (new driver), and
// continue; the restart must continue converging from where it stopped,
// which is the paper's restart-from-coarser-grid workflow made durable.
#include <gtest/gtest.h>

#include <sstream>

#include "core/time_iteration.hpp"
#include "olg/olg_model.hpp"
#include "serve/snapshot.hpp"

namespace hddm::core {
namespace {

TEST(CheckpointIntegration, ResumeContinuesConverging) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));

  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.tolerance = 0.0;  // fixed iteration counts

  // Phase 1: run 4 iterations, snapshot.
  TimeIterationDriver driver1(model, opts);
  const InitialPolicyEvaluator initial(model);
  std::shared_ptr<AsgPolicy> policy;
  double change_at_save = 0.0;
  {
    const PolicyEvaluator* p = &initial;
    for (int it = 0; it < 4; ++it) {
      IterationStats stats;
      policy = driver1.step(*p, stats);
      p = policy.get();
      change_at_save = stats.policy_change_linf;
    }
  }
  std::stringstream buffer;
  serve::save_snapshot(*policy, {}, buffer);

  // Phase 2: reload into a fresh driver and continue.
  // The solve's own kernel, so the continuation below is bitwise comparable.
  const std::shared_ptr<AsgPolicy> restored =
      serve::load_snapshot(buffer, kernels::KernelKind::X86).policy;
  TimeIterationDriver driver2(model, opts);
  IterationStats stats;
  const auto next = driver2.step(*restored, stats);
  (void)next;
  // One more step from the restored policy contracts further.
  EXPECT_LT(stats.policy_change_linf, change_at_save);

  // And it matches a continuation without the checkpoint round trip.
  IterationStats direct_stats;
  const auto direct = driver1.step(*policy, direct_stats);
  (void)direct;
  EXPECT_NEAR(stats.policy_change_linf, direct_stats.policy_change_linf, 1e-12);
}

TEST(CheckpointIntegration, RestartWithFinerGridsMatchesPaperProtocol) {
  // Sec. V-C: "a nonadaptive sparse grid of refinement level 4 that was
  // restarted from a sparse grid of level 2" — level-up restarts must work
  // from a checkpointed coarse policy.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));

  TimeIterationOptions coarse;
  coarse.base_level = 2;
  coarse.max_iterations = 6;
  coarse.tolerance = 0.0;
  const auto stage1 = solve_time_iteration(model, coarse);

  std::stringstream buffer;
  serve::save_snapshot(*stage1.policy, {}, buffer);
  const auto restored = serve::load_snapshot(buffer, kernels::KernelKind::X86).policy;

  TimeIterationOptions fine;
  fine.base_level = 3;
  fine.tolerance = 0.0;
  TimeIterationDriver driver(model, fine);
  IterationStats stats;
  const auto refined = driver.step(*restored, stats);
  EXPECT_GT(refined->total_points(), stage1.policy->total_points());
  // Warm-started from the coarse solution, the fine grid's first update is
  // already small.
  EXPECT_LT(stats.policy_change_linf, 0.2);
}

}  // namespace
}  // namespace hddm::core
