// Quickstart: approximate a function with an adaptive sparse grid, compress
// it, and interpolate with an optimized kernel.
//
//   $ ./quickstart
//
// Walks through the toolkit's core loop in ~80 lines:
//   1. build a regular sparse grid in d dimensions,
//   2. hierarchize nodal values into surpluses,
//   3. refine adaptively where the surplus indicator is large,
//   4. compress the grid (Sec. IV-B of the paper),
//   5. evaluate with the fastest kernel the host supports.
#include <cstdio>
#include <string>

#include "core/compression.hpp"
#include "kernels/kernel_api.hpp"
#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

int main() {
  using namespace hddm;
  const int d = 4;

  // The function to approximate: smooth with a localized feature, so the
  // adaptive refinement has something to find.
  const auto f = [](std::span<const double> x) {
    double s = 0.0;
    for (const double xi : x) s += xi;
    const double bump = std::exp(-40.0 * (x[0] - 0.3) * (x[0] - 0.3));
    return std::vector<double>{std::sin(s) + bump};
  };

  // 1. Regular sparse grid of level 4 (vs 2^(4*3)=4096+ for a full grid).
  sg::GridStorage storage(d);
  sg::build_regular_grid(storage, 4);
  std::printf("regular level-4 grid in d=%d: %u points (full grid would need %.0f)\n", d,
              storage.size(), std::pow(2.0, 4.0) * std::pow(9.0, d - 1));

  // 2. Hierarchize: nodal values -> hierarchical surpluses.
  sg::DenseGridData dense = sg::hierarchize_function(storage, 1, f);

  // 3. One adaptive refinement pass (threshold on the max-|surplus|).
  const auto indicators = sg::max_abs_indicator(
      std::span<const double>(dense.surplus.data(), dense.surplus.size()), dense.nno, 1);
  sg::RefinementOptions ropts;
  ropts.epsilon = 1e-3;
  ropts.max_level = 7;
  const auto report = sg::refine_by_surplus(storage, 0, indicators, ropts);
  std::printf("adaptive refinement: +%u children, +%u closure points\n", report.children_added,
              report.ancestors_added);
  dense = sg::hierarchize_function(storage, 1, f);  // re-fit on the refined grid

  // 4. Compress (zero elimination -> xps factors -> chains).
  const core::CompressedGridData compressed = core::compress(dense);
  std::printf("compression: %u points, nfreq=%d, %zu unique basis factors, "
              "%.1f%% of the pair matrix was zeros\n",
              compressed.nno, compressed.nfreq, compressed.xps_size(),
              100.0 * compressed.stats.xi_zero_fraction);

  // 5. Pick the best supported kernel and interpolate.
  const auto kernel =
      kernels::make_kernel(kernels::best_supported_kernel(), &dense, &compressed);
  std::printf("using kernel: %s\n", std::string(kernel->name()).c_str());

  util::Rng rng(1);
  double max_err = 0.0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::vector<double> x = rng.uniform_point(d);
    double value = 0.0;
    kernel->evaluate(x.data(), &value);
    max_err = std::max(max_err, std::fabs(value - f(x)[0]));
  }
  std::printf("max interpolation error over 1000 random points: %.3e\n", max_err);
  return max_err < 0.1 ? 0 : 1;
}
