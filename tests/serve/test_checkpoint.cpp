// Restart checkpoints of a policy through the snapshot format: the
// round-trip, heterogeneity, backend and rejection guarantees a solve-side
// restart relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "serve/snapshot.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::core {
namespace {

using kernels::KernelKind;
using serve::load_snapshot;
using serve::save_snapshot;

std::shared_ptr<AsgPolicy> make_policy(int nshocks, int d, int level, int ndofs,
                                       std::uint64_t seed) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  util::Rng rng(seed);
  for (int z = 0; z < nshocks; ++z) {
    sg::GridStorage storage(d);
    sg::build_regular_grid(storage, level);
    std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * ndofs);
    for (auto& s : surpluses) s = rng.uniform(-2, 2);
    grids.push_back(std::make_unique<ShockGrid>(storage, ndofs, surpluses,
                                                kernels::KernelKind::X86));
  }
  return std::make_shared<AsgPolicy>(ndofs, std::move(grids));
}

TEST(Checkpoint, RoundTripsThroughStream) {
  const auto original = make_policy(3, 4, 3, 5, 42);
  std::stringstream buffer;
  save_snapshot(*original, {}, buffer);
  const auto restored = load_snapshot(buffer, KernelKind::X86).policy;

  EXPECT_EQ(restored->num_shocks(), 3);
  EXPECT_EQ(restored->ndofs(), 5);
  EXPECT_EQ(restored->total_points(), original->total_points());

  util::Rng rng(7);
  std::vector<double> a(5), b(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = rng.uniform_point(4);
    for (int z = 0; z < 3; ++z) {
      original->evaluate(z, x, a);
      restored->evaluate(z, x, b);
      for (int dof = 0; dof < 5; ++dof) EXPECT_DOUBLE_EQ(a[dof], b[dof]);
    }
  }
}

TEST(Checkpoint, RoundTripsThroughFile) {
  const auto original = make_policy(2, 3, 2, 4, 1);
  const std::string path = ::testing::TempDir() + "/hddm_ckpt_test.bin";
  save_snapshot(*original, {}, path);
  const auto restored = load_snapshot(path, KernelKind::X86).policy;
  EXPECT_EQ(restored->total_points(), original->total_points());

  std::vector<double> a(4), b(4);
  const std::vector<double> x{0.4, 0.1, 0.9};
  original->evaluate(1, x, a);
  restored->evaluate(1, x, b);
  EXPECT_EQ(a, b);
  std::remove(path.c_str());
}

TEST(Checkpoint, PreservesShockHeterogeneity) {
  // Shocks with different grid sizes must survive the round trip.
  std::vector<std::unique_ptr<ShockGrid>> grids;
  util::Rng rng(9);
  for (int level : {2, 3}) {
    sg::GridStorage storage(2);
    sg::build_regular_grid(storage, level);
    std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * 2);
    for (auto& s : surpluses) s = rng.uniform(-1, 1);
    grids.push_back(std::make_unique<ShockGrid>(storage, 2, surpluses,
                                                kernels::KernelKind::X86));
  }
  const AsgPolicy original(2, std::move(grids));
  std::stringstream buffer;
  save_snapshot(original, {}, buffer);
  const auto restored = load_snapshot(buffer, KernelKind::X86).policy;
  EXPECT_EQ(restored->points_per_shock(), original.points_per_shock());
}

TEST(Checkpoint, LoadWithDifferentKernelBackend) {
  const auto original = make_policy(1, 3, 3, 2, 5);
  std::stringstream buffer;
  save_snapshot(*original, {}, buffer);
  const auto restored = load_snapshot(buffer, KernelKind::Gold).policy;
  std::vector<double> a(2), b(2);
  const std::vector<double> x{0.25, 0.5, 0.75};
  original->evaluate(0, x, a);
  restored->evaluate(0, x, b);
  for (int dof = 0; dof < 2; ++dof) EXPECT_NEAR(a[dof], b[dof], 1e-14);
}

TEST(Checkpoint, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "this is not a checkpoint";
  EXPECT_THROW((void)load_snapshot(buffer), std::runtime_error);
}

TEST(Checkpoint, RejectsTruncated) {
  const auto original = make_policy(2, 3, 3, 4, 3);
  std::stringstream buffer;
  save_snapshot(*original, {}, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)load_snapshot(cut), std::runtime_error);
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW((void)load_snapshot(std::string("/nonexistent/path/x.bin")), std::runtime_error);
}

}  // namespace
}  // namespace hddm::core
