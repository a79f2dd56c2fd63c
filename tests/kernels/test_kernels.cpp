// Equivalence and behavior tests for every interpolation kernel of Table II.
#include "kernels/kernel_api.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/interpolate.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::kernels {
namespace {

struct GridFixture {
  sg::GridStorage storage;
  sg::DenseGridData dense;
  core::CompressedGridData compressed;

  GridFixture(int d, int level, int ndofs, std::uint64_t seed) : storage(d) {
    sg::build_regular_grid(storage, level);
    dense = sg::make_dense_grid(storage, ndofs);
    util::Rng rng(seed);
    for (auto& s : dense.surplus) s = rng.uniform(-1.0, 1.0);
    compressed = core::compress(dense);
  }
};

std::vector<KernelKind> supported_kinds() {
  std::vector<KernelKind> kinds;
  for (const KernelKind k : kAllKernelKinds)
    if (kernel_supported(k)) kinds.push_back(k);
  return kinds;
}

TEST(KernelDispatch, ScalarKernelsAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(KernelKind::Gold));
  EXPECT_TRUE(kernel_supported(KernelKind::X86));
  EXPECT_TRUE(kernel_supported(KernelKind::SimGpu));
}

TEST(KernelDispatch, NamesMatchPaperRows) {
  EXPECT_EQ(kernel_name(KernelKind::Gold), "gold");
  EXPECT_EQ(kernel_name(KernelKind::X86), "x86");
  EXPECT_EQ(kernel_name(KernelKind::Avx), "avx");
  EXPECT_EQ(kernel_name(KernelKind::Avx2), "avx2");
  EXPECT_EQ(kernel_name(KernelKind::Avx512), "avx512");
  EXPECT_EQ(kernel_name(KernelKind::SimGpu), "cuda(sim)");
}

TEST(KernelDispatch, GoldRequiresDenseData) {
  const GridFixture fx(2, 2, 1, 1);
  EXPECT_THROW((void)make_kernel(KernelKind::Gold, nullptr, &fx.compressed),
               std::invalid_argument);
}

TEST(KernelDispatch, CompressedKernelsRequireCompressedData) {
  const GridFixture fx(2, 2, 1, 1);
  EXPECT_THROW((void)make_kernel(KernelKind::X86, &fx.dense, nullptr), std::invalid_argument);
}

// Parameterized over (kernel kind x grid shape): every kernel must agree with
// the reference interpolation to near machine precision.
struct EquivCase {
  KernelKind kind;
  int d;
  int level;
  int ndofs;
};

class KernelEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(KernelEquivalenceTest, MatchesReferenceInterpolation) {
  const auto [kind, d, level, ndofs] = GetParam();
  if (!kernel_supported(kind)) GTEST_SKIP() << "ISA not available";

  const GridFixture fx(d, level, ndofs, 0xBEEF + d + level);
  const auto kernel = make_kernel(kind, &fx.dense, &fx.compressed);
  EXPECT_EQ(kernel->dim(), d);
  EXPECT_EQ(kernel->ndofs(), ndofs);

  util::Rng rng(17);
  std::vector<double> value(static_cast<std::size_t>(ndofs));
  std::vector<double> expected(static_cast<std::size_t>(ndofs));
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<double> x = rng.uniform_point(d);
    kernel->evaluate(x.data(), value.data());
    sg::reference_interpolate(fx.dense, x, expected);
    for (int dof = 0; dof < ndofs; ++dof)
      EXPECT_NEAR(value[dof], expected[dof], 1e-12)
          << kernel_name(kind) << " dof " << dof << " trial " << trial;
  }
}

std::vector<EquivCase> equivalence_cases() {
  std::vector<EquivCase> cases;
  for (const KernelKind kind : kAllKernelKinds) {
    cases.push_back({kind, 1, 5, 3});
    cases.push_back({kind, 2, 4, 1});
    cases.push_back({kind, 3, 3, 7});    // ndofs not a multiple of vector width
    cases.push_back({kind, 6, 3, 8});    // exactly one AVX-512 vector
    cases.push_back({kind, 10, 3, 118}); // the paper's ndofs
    cases.push_back({kind, 59, 2, 16});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelEquivalenceTest,
                         ::testing::ValuesIn(equivalence_cases()),
                         [](const ::testing::TestParamInfo<EquivCase>& info) {
                           const auto& c = info.param;
                           std::string name(kernel_name(c.kind));
                           for (auto& ch : name)
                             if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return name + "_d" + std::to_string(c.d) + "_l" +
                                  std::to_string(c.level) + "_nd" + std::to_string(c.ndofs);
                         });

TEST(Kernels, ExactAtGridPoints) {
  // With hierarchized surpluses of a real function, every kernel reproduces
  // the function at the grid points (the interpolation property end-to-end).
  const int d = 3, ndofs = 2;
  sg::GridStorage storage(d);
  sg::build_regular_grid(storage, 4);
  const auto f = [](std::span<const double> x) {
    return std::vector<double>{std::sin(x[0] + 2 * x[1]) + x[2], x[0] * x[1] + 0.5};
  };
  const sg::DenseGridData dense = sg::hierarchize_function(storage, ndofs, f);
  const core::CompressedGridData compressed = core::compress(dense);

  std::vector<double> value(ndofs);
  for (const KernelKind kind : supported_kinds()) {
    const auto kernel = make_kernel(kind, &dense, &compressed);
    for (std::uint32_t p = 0; p < storage.size(); p += 7) {
      const auto x = storage.coordinates(p);
      kernel->evaluate(x.data(), value.data());
      const auto expected = f(x);
      EXPECT_NEAR(value[0], expected[0], 1e-11) << kernel_name(kind);
      EXPECT_NEAR(value[1], expected[1], 1e-11) << kernel_name(kind);
    }
  }
}

// Boundary-point agreement across ISAs lives in test_kernel_parity.cpp,
// which bounds the discrepancy in ULPs instead of an absolute epsilon.

TEST(Kernels, BatchMatchesPointwise) {
  const GridFixture fx(5, 3, 6, 33);
  util::Rng rng(3);
  const std::size_t npoints = 17;
  std::vector<double> xs(npoints * 5);
  for (auto& v : xs) v = rng.uniform();

  for (const KernelKind kind : supported_kinds()) {
    const auto kernel = make_kernel(kind, &fx.dense, &fx.compressed);
    std::vector<double> batch(npoints * 6), single(6);
    kernel->evaluate_batch(xs.data(), batch.data(), npoints);
    for (std::size_t k = 0; k < npoints; ++k) {
      kernel->evaluate(xs.data() + k * 5, single.data());
      for (int dof = 0; dof < 6; ++dof)
        EXPECT_DOUBLE_EQ(batch[k * 6 + dof], single[dof]) << kernel_name(kind);
    }
  }
}

TEST(Kernels, ThreadSafeConcurrentEvaluation) {
  // Every kernel must be callable from many threads at once (the Fig. 2
  // worker pool does exactly that) and deterministic: each thread's results
  // equal the same kernel's single-threaded results bit for bit.
  const int d = 4, nd = 8, npoints = 200, nthreads = 4;
  const GridFixture fx(d, 3, nd, 55);
  util::Rng rng(100);
  std::vector<double> xs(static_cast<std::size_t>(npoints * d));
  for (auto& v : xs) v = rng.uniform();

  for (const KernelKind kind : supported_kinds()) {
    SCOPED_TRACE(std::string(kernel_name(kind)));
    const auto kernel = make_kernel(kind, &fx.dense, &fx.compressed);
    std::vector<double> expected(static_cast<std::size_t>(npoints * nd));
    for (int k = 0; k < npoints; ++k) kernel->evaluate(&xs[k * d], &expected[k * nd]);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread starts at a different point, so the threads evaluate
        // different points at the same time.
        std::vector<double> value(nd);
        for (int i = 0; i < npoints; ++i) {
          const int k = (i + t * npoints / nthreads) % npoints;
          kernel->evaluate(&xs[k * d], value.data());
          if (std::memcmp(value.data(), &expected[k * nd], nd * sizeof(double)) != 0)
            mismatches.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

}  // namespace
}  // namespace hddm::kernels
