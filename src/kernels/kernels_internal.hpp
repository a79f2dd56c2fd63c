// Internal factory hooks connecting dispatch.cpp with the kernel
// translation units.
#pragma once

#include <memory>

#include "kernels/kernel_api.hpp"

namespace hddm::kernels::detail {

std::unique_ptr<InterpolationKernel> make_gold_kernel(const sg::DenseGridData& dense);
/// The x86/avx/avx2/avx512 kernels (compressed.cpp); throws
/// std::invalid_argument for any other kind.
std::unique_ptr<InterpolationKernel> make_compressed_kernel(KernelKind kind,
                                                            const core::CompressedGridData& grid);
std::unique_ptr<InterpolationKernel> make_simgpu_kernel(const core::CompressedGridData& grid);

/// Computes the xpv scratch (unique basis factors at x) shared by all
/// compressed kernels: xpv[0] = 1 (sentinel), xpv[k] = max(0, phi(x[j_k])).
/// `xpv` must have grid.xps_size() entries.
void compute_xpv(const core::CompressedGridData& grid, const double* x, double* xpv);

}  // namespace hddm::kernels::detail
