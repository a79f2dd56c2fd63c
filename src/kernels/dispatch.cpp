// Runtime kernel selection: name table, CPUID feature checks, factory.
#include <stdexcept>

#include "kernels/kernel_api.hpp"
#include "kernels/kernels_internal.hpp"

namespace hddm::kernels {

std::string_view kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::Gold: return "gold";
    case KernelKind::X86: return "x86";
    case KernelKind::Avx: return "avx";
    case KernelKind::Avx2: return "avx2";
    case KernelKind::Avx512: return "avx512";
    case KernelKind::SimGpu: return "cuda(sim)";
  }
  return "unknown";
}

bool kernel_supported(KernelKind kind) {
  switch (kind) {
    case KernelKind::Gold:
    case KernelKind::X86:
    case KernelKind::SimGpu:
      return true;
    case KernelKind::Avx:
      return __builtin_cpu_supports("avx");
    case KernelKind::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case KernelKind::Avx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
}

KernelKind best_supported_kernel() {
  for (const KernelKind kind :
       {KernelKind::Avx512, KernelKind::Avx2, KernelKind::Avx, KernelKind::X86})
    if (kernel_supported(kind)) return kind;
  return KernelKind::X86;
}

void InterpolationKernel::evaluate_batch(const double* x, double* value,
                                         std::size_t npoints) const {
  const int d = dim();
  const int nd = ndofs();
  for (std::size_t k = 0; k < npoints; ++k)
    evaluate(x + k * static_cast<std::size_t>(d), value + k * static_cast<std::size_t>(nd));
}

std::unique_ptr<InterpolationKernel> make_kernel(KernelKind kind, const sg::DenseGridData* dense,
                                                 const core::CompressedGridData* compressed) {
  if (!kernel_supported(kind))
    throw std::runtime_error(std::string("kernel not supported on this host: ") +
                             std::string(kernel_name(kind)));
  if (kind == KernelKind::Gold) {
    if (dense == nullptr) throw std::invalid_argument("gold kernel requires dense grid data");
    return detail::make_gold_kernel(*dense);
  }
  if (compressed == nullptr)
    throw std::invalid_argument("compressed kernels require compressed grid data");
  if (kind == KernelKind::SimGpu) return detail::make_simgpu_kernel(*compressed);
  return detail::make_compressed_kernel(kind, *compressed);
}

}  // namespace hddm::kernels
