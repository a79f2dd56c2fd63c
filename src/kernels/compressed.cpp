// The compressed-format kernels — the `x86`, `avx`, `avx2` and `avx512` rows
// of Table II and the left panel of the paper's Fig. 5. The unique basis
// factors are evaluated once into the xpv scratch (which fits L1 for the
// paper's grids: 237/473 entries in Table I); the walk then multiplies
// chained factors instead of d pairs per point.
//
// Points are sorted by chain, so those sharing a chain prefix form one
// contiguous block. When a point's running product turns 0.0 at slot f, the
// skip table (grid.skip, built by core::compress) names the first later
// point whose chain differs in slots 0..f; every point before it multiplies
// the same factors in the same order and would get 0.0 as well, so the walk
// jumps there. Only points whose support holds x and the first point of each
// dead block are visited, not all nno, and the result is bitwise the
// unpruned walk's: the surviving points are accumulated in the same order
// (DESIGN.md, "Pruned chain walk").
//
// The four rows share one chain walk, walk<W>, and differ only in the width
// policy W that adds temp * surplus_row into the value vector:
//   x86     scalar loop
//   avx     256-bit multiply + add (AVX has no FMA)
//   avx2    256-bit FMA
//   avx512  512-bit FMA with a masked tail
// The chain walk itself stays scalar — it is a short, data-dependent loop.
// As the paper observes (Sec. V-A), the width buys little: the kernel is
// bound by the surplus matrix traffic.
//
// Every kernel is single-threaded and deterministic; parallelism lives in
// the callers (the work-stealing pool, batched evaluation). The paper's KNL
// variant, which also splits each evaluation's reduction across a thread
// team inside the avx512 kernel, is not reproduced (DESIGN.md
// substitutions).
//
// Each tier's entry function carries its ISA's target attribute, so walk<W>
// and W::axpy inline into one body compiled for that ISA while the rest of
// the binary stays portable; dispatch.cpp checks CPUID before construction.
// No call is left inside the entries at -O2/-O3 (GCC 12).
#include <immintrin.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kernels/kernels_internal.hpp"
#include "sparse_grid/basis.hpp"

namespace hddm::kernels::detail {

void compute_xpv(const core::CompressedGridData& grid, const double* x, double* xpv) {
  xpv[0] = 1.0;  // sentinel slot: chains terminate before touching it
  const std::size_t n = grid.xps.size();
  for (std::size_t k = 1; k < n; ++k) {
    const core::XpsEntry& e = grid.xps[k];
    // hat_value is already clamped at zero (the fmax of the paper's listing).
    xpv[k] = sg::hat_value({e.l, e.i}, x[e.j]);
  }
}

namespace {

// Width policies: axpy adds t * s[0..nd) into v[0..nd). Each carries its
// tier's target attribute but is not always_inline: GCC checks that call
// inside walk<W>, which has the baseline target, and rejects it with
// "target specific option mismatch". Plain inlining still happens at -O2.

struct X86Width {
  static void axpy(double t, const double* s, double* v, int nd) {
    for (int dof = 0; dof < nd; ++dof) v[dof] += t * s[dof];
  }
};

struct AvxWidth {
  __attribute__((target("avx"))) static void axpy(double t, const double* s, double* v, int nd) {
    const __m256d vt = _mm256_set1_pd(t);
    int dof = 0;
    for (; dof + 4 <= nd; dof += 4)
      _mm256_storeu_pd(v + dof, _mm256_add_pd(_mm256_loadu_pd(v + dof),
                                              _mm256_mul_pd(vt, _mm256_loadu_pd(s + dof))));
    for (; dof < nd; ++dof) v[dof] += t * s[dof];
  }
};

struct Avx2Width {
  __attribute__((target("avx2,fma"))) static void axpy(double t, const double* s, double* v,
                                                       int nd) {
    const __m256d vt = _mm256_set1_pd(t);
    int dof = 0;
    for (; dof + 4 <= nd; dof += 4)
      _mm256_storeu_pd(v + dof,
                       _mm256_fmadd_pd(vt, _mm256_loadu_pd(s + dof), _mm256_loadu_pd(v + dof)));
    for (; dof < nd; ++dof) v[dof] += t * s[dof];
  }
};

struct Avx512Width {
  __attribute__((target("avx512f"))) static void axpy(double t, const double* s, double* v,
                                                      int nd) {
    const __m512d vt = _mm512_set1_pd(t);
    int dof = 0;
    for (; dof + 8 <= nd; dof += 8)
      _mm512_storeu_pd(v + dof,
                       _mm512_fmadd_pd(vt, _mm512_loadu_pd(s + dof), _mm512_loadu_pd(v + dof)));
    if (dof < nd) {
      const auto tail = static_cast<__mmask8>((1u << (nd - dof)) - 1u);
      _mm512_mask_storeu_pd(v + dof, tail,
                            _mm512_fmadd_pd(vt, _mm512_maskz_loadu_pd(tail, s + dof),
                                            _mm512_maskz_loadu_pd(tail, v + dof)));
    }
  }
};

/// The calling thread's xpv scratch, grown to n entries.
double* xpv_scratch(std::size_t n) {
  thread_local std::vector<double> xpv;
  xpv.resize(n);
  return xpv.data();
}

/// The chain walk every tier shares. always_inline places it, and with it
/// the W::axpy call, inside the tier's entry function, whose target
/// attribute lets GCC inline axpy as well; a standalone walk<W> compiled
/// for the baseline ISA could only call it.
template <class W>
[[gnu::always_inline]] inline void walk(const core::CompressedGridData& grid, const double* xpv,
                                        double* value) {
  const int nd = grid.ndofs;
  const int nfreq = grid.nfreq;
  std::fill(value, value + nd, 0.0);

  for (std::uint32_t p = 0, next; p < grid.nno; p = next) {
    const std::uint32_t* chain = grid.chain_row(p);
    double temp = 1.0;
    next = p + 1;
    for (int f = 0; f < nfreq; ++f) {
      const std::uint32_t idx = chain[f];
      if (!idx) break;
      temp *= xpv[idx];
      if (temp == 0.0) {
        next = grid.skip_row(p)[f];
        break;
      }
    }
    if (temp != 0.0) W::axpy(temp, grid.surplus_row(p), value, nd);
  }
}

// Tier entry points, one per Table II row. They take xpv from the caller
// rather than computing it: compiled under an FMA target, GCC would
// contract hat_value's 1 - scale * |x - center| and change the factors.
using WalkFn = void (*)(const core::CompressedGridData&, const double*, double*);

void walk_x86(const core::CompressedGridData& g, const double* xpv, double* v) {
  walk<X86Width>(g, xpv, v);
}
__attribute__((target("avx"))) void walk_avx(const core::CompressedGridData& g, const double* xpv,
                                             double* v) {
  walk<AvxWidth>(g, xpv, v);
}
__attribute__((target("avx2,fma"))) void walk_avx2(const core::CompressedGridData& g,
                                                   const double* xpv, double* v) {
  walk<Avx2Width>(g, xpv, v);
}
__attribute__((target("avx512f"))) void walk_avx512(const core::CompressedGridData& g,
                                                    const double* xpv, double* v) {
  walk<Avx512Width>(g, xpv, v);
}

template <KernelKind Kind, WalkFn Walk>
class CompressedKernel final : public InterpolationKernel {
 public:
  explicit CompressedKernel(const core::CompressedGridData& grid) : grid_(grid) {}

  [[nodiscard]] KernelKind kind() const override { return Kind; }
  [[nodiscard]] int dim() const override { return grid_.dim; }
  [[nodiscard]] int ndofs() const override { return grid_.ndofs; }

  void evaluate(const double* x, double* value) const override {
    double* xpv = xpv_scratch(grid_.xps.size());
    compute_xpv(grid_, x, xpv);
    Walk(grid_, xpv, value);
  }

 private:
  const core::CompressedGridData& grid_;
};

}  // namespace

std::unique_ptr<InterpolationKernel> make_compressed_kernel(KernelKind kind,
                                                            const core::CompressedGridData& grid) {
  switch (kind) {
    case KernelKind::X86: return std::make_unique<CompressedKernel<KernelKind::X86, walk_x86>>(grid);
    case KernelKind::Avx: return std::make_unique<CompressedKernel<KernelKind::Avx, walk_avx>>(grid);
    case KernelKind::Avx2:
      return std::make_unique<CompressedKernel<KernelKind::Avx2, walk_avx2>>(grid);
    case KernelKind::Avx512:
      return std::make_unique<CompressedKernel<KernelKind::Avx512, walk_avx512>>(grid);
    default: throw std::invalid_argument("not a compressed CPU kernel");
  }
}

}  // namespace hddm::kernels::detail

namespace hddm::kernels {

void evaluate_with_gradient(const core::CompressedGridData& grid, const double* x, double* value,
                            double* grad) {
  const int nd = grid.ndofs;
  const int nfreq = grid.nfreq;
  const auto d = static_cast<std::size_t>(grid.dim);

  // xpv as in the x86 kernel, plus the matching derivative table. xpd is
  // zero wherever xpv is zero (hat_derivative's support-edge convention), so
  // the zero-factor early exit below drops value AND gradient exactly.
  thread_local std::vector<double> xpv, xpd, pre;
  xpv.resize(grid.xps.size());
  xpd.resize(grid.xps.size());
  pre.resize(static_cast<std::size_t>(nfreq));
  detail::compute_xpv(grid, x, xpv.data());
  xpd[0] = 0.0;
  for (std::size_t k = 1; k < grid.xps.size(); ++k) {
    const core::XpsEntry& e = grid.xps[k];
    xpd[k] = sg::hat_derivative({e.l, e.i}, x[e.j]);
  }

  std::fill(value, value + nd, 0.0);
  std::fill(grad, grad + static_cast<std::size_t>(nd) * d, 0.0);

  for (std::uint32_t p = 0, next; p < grid.nno; p = next) {
    // Forward chain walk — identical to walk<X86Width>, skip included, with
    // prefix products saved for the gradient pass.
    const std::uint32_t* chain = grid.chain_row(p);
    double temp = 1.0;
    int len = 0;
    next = p + 1;
    for (int f = 0; f < nfreq; ++f) {
      const std::uint32_t idx = chain[f];
      if (!idx) break;
      pre[static_cast<std::size_t>(f)] = temp;
      temp *= xpv[idx];
      if (temp == 0.0) {
        next = grid.skip_row(p)[f];
        break;
      }
      ++len;
    }
    if (temp == 0.0) continue;
    const double* srow = grid.surplus_row(p);
    for (int dof = 0; dof < nd; ++dof) value[dof] += temp * srow[dof];

    // Backward pass: dtemp_f = (prod of the other factors) * dphi_f, routed
    // to the factor's dimension. Chains carry only non-root factors, so
    // level-1 dimensions correctly keep zero gradient.
    double suf = 1.0;
    for (int f = len - 1; f >= 0; --f) {
      const std::uint32_t idx = chain[f];
      const double dtemp = pre[static_cast<std::size_t>(f)] * suf * xpd[idx];
      suf *= xpv[idx];
      if (dtemp == 0.0) continue;
      const std::size_t j = grid.xps[idx].j;
      for (int dof = 0; dof < nd; ++dof)
        grad[static_cast<std::size_t>(dof) * d + j] += dtemp * srow[dof];
    }
  }
}

}  // namespace hddm::kernels
