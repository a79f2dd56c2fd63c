// Reproduces Table II and Fig. 6: average per-evaluation runtime of the
// interpolation kernels (gold / x86 / avx / avx2 / avx512 / cuda) on the
// "7k" and "300k" test cases, and the speedups normalized to `gold`.
//
// Protocol follows Sec. V-A: evaluate each kernel at randomly sampled points
// of B = [0,1]^59 with ndofs = 118 and report the average time per
// evaluation. Absolute numbers differ from the paper (different silicon; the
// GPU row executes on the *simulated* device, see DESIGN.md) — the
// reproduction target is the structure: compressed formats ~4x over gold,
// AVX ~= AVX2 ~= x86 (memory-bound), the wide-vector kernels pulling ahead
// only on the large case. The x86/avx/avx2/avx512 rows are one compressed
// kernel instantiated per vector width, and all of them run single-threaded:
// the paper's KNL avx512 kernel reduced over an OpenMP team inside each
// evaluation, which this reproduction replaces with pool-level parallelism
// (DESIGN.md substitutions), so the avx512 row measures one core.
//
// Benchmarks register as table2/{7k,300k}/<kernel> on the benchlib harness
// (--filter/--reps/--json, see --help); the paper tables are report
// formatters over the collected samples.
//
// Environment:
//   HDDM_TABLE2_DIM      state dimension (default 59)
//   HDDM_TABLE2_NDOFS    dofs per point  (default 118)
//   HDDM_TABLE2_S7K      samples for the small case (default 200)
//   HDDM_TABLE2_S300K    samples for the large case (default 20)
//   HDDM_TABLE2_FULL     0 skips the 300k case (default 1)
#include "bench_common.hpp"

#include <cmath>
#include <limits>

#include "benchlib/benchlib.hpp"
#include "kernels/kernel_api.hpp"
#include "simgpu/perf_model.hpp"

namespace {

using namespace hddm;

struct PaperRow {
  double t7k;
  double t300k;
};

// Table II of the paper (seconds).
PaperRow paper_row(kernels::KernelKind kind) {
  using K = kernels::KernelKind;
  switch (kind) {
    case K::Gold: return {0.000820, 0.018884};
    case K::X86: return {0.000197, 0.004251};
    case K::Avx: return {0.000204, 0.004221};
    case K::Avx2: return {0.000204, 0.004234};
    case K::Avx512: return {0.000225, 0.000907};
    case K::SimGpu: return {0.000122, 0.000275};
  }
  return {0, 0};
}

int dim() { return static_cast<int>(util::env_long("HDDM_TABLE2_DIM", 59)); }
int ndofs() { return static_cast<int>(util::env_long("HDDM_TABLE2_NDOFS", 118)); }
bool full() { return util::env_long("HDDM_TABLE2_FULL", 1) != 0; }

struct CaseData {
  bench::TestGrid grid;
  std::vector<std::vector<double>> xs;  // random evaluation points
  double active_fraction = 0.0;         // for the GPU perf model
};

CaseData build_case(int level, int samples, std::uint64_t grid_seed, std::uint64_t point_seed) {
  CaseData c;
  c.grid = bench::build_test_grid(dim(), level, ndofs(), grid_seed);
  util::Rng rng(point_seed);
  c.xs.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) c.xs.push_back(rng.uniform_point(dim()));

  // Active-point fraction for the perf model: count points whose chain
  // product is nonzero at a random sample.
  const auto& comp = c.grid.compressed;
  std::vector<double> xpv(comp.xps.size(), 1.0);
  const auto& x = c.xs.front();
  for (std::size_t k = 1; k < comp.xps.size(); ++k)
    xpv[k] = sg::hat_value({comp.xps[k].l, comp.xps[k].i}, x[comp.xps[k].j]);
  std::uint64_t active = 0;
  for (std::uint32_t p = 0; p < comp.nno; ++p) {
    const std::uint32_t* chain = comp.chain_row(p);
    double temp = 1.0;
    for (int f = 0; f < comp.nfreq && chain[f]; ++f) temp *= xpv[chain[f]];
    active += (temp != 0.0);
  }
  c.active_fraction = comp.nno ? static_cast<double>(active) / comp.nno : 0.0;
  return c;
}

CaseData& case_7k() {
  static CaseData c = [] {
    const int samples = static_cast<int>(util::env_long("HDDM_TABLE2_S7K", 200));
    std::printf("[table2] building level-3 grid...\n");
    return build_case(3, samples, 7, 1001);
  }();
  return c;
}

CaseData& case_300k() {
  static CaseData c = [] {
    const int samples = static_cast<int>(util::env_long("HDDM_TABLE2_S300K", 20));
    std::printf("[table2] building level-4 grid (281,077 points at d=59; ~0.5 GB)...\n");
    return build_case(4, samples, 8, 1002);
  }();
  return c;
}

/// One benchmark body: evaluate the kernel at every sample point of the case.
void run_kernel_case(benchlib::State& state, const char* tag, kernels::KernelKind kind) {
  if (!kernels::kernel_supported(kind)) {
    state.skip("ISA not available on this host");
    return;
  }
  const bool large = std::string_view(tag) == "300k";
  if (large && !full()) {
    state.skip("disabled by HDDM_TABLE2_FULL=0");
    return;
  }
  CaseData& c = large ? case_300k() : case_7k();
  const auto kernel = kernels::make_kernel(kind, &c.grid.dense, &c.grid.compressed);

  const auto samples = static_cast<double>(c.xs.size());
  state.set_items_per_rep(samples);  // items == kernel evaluations
  state.set_dofs_per_rep(samples * c.grid.dense.ndofs);
  // Surplus-matrix traffic per evaluation: the compressed kernels stream the
  // whole nno x ndofs matrix (early exits skip rows, so this is an upper
  // bound, consistent across kernels).
  state.set_bytes_per_rep(samples * static_cast<double>(c.grid.dense.nno) *
                          c.grid.dense.ndofs * sizeof(double));
  state.info("kernel", std::string(kernels::kernel_name(kind)));
  state.info("case", tag);
  state.info("nno", static_cast<double>(c.grid.dense.nno));
  state.info("samples", samples);

  std::vector<double> value(static_cast<std::size_t>(c.grid.dense.ndofs));
  std::vector<double> sink(value.size(), 0.0);
  state.run([&] {
    for (const auto& x : c.xs) {
      kernel->evaluate(x.data(), value.data());
      for (std::size_t k = 0; k < value.size(); ++k) sink[k] += value[k];
    }
  });
  benchlib::do_not_optimize(sink.data());
}

/// Median seconds per single evaluation, NaN when the benchmark did not run.
double per_eval(const benchlib::RunReport& report, const char* tag, kernels::KernelKind kind) {
  const std::string name =
      std::string("table2/") + tag + "/" + std::string(kernels::kernel_name(kind));
  const benchlib::BenchResult* r = report.find_measured(name);
  return r != nullptr ? r->seconds_per_item() : std::numeric_limits<double>::quiet_NaN();
}

int report_tables(const benchlib::RunReport& report) {
  bench::print_header("Table II: interpolation kernel runtimes (time per evaluation)");
  const bool ran_300k = report.find_measured("table2/300k/gold") != nullptr;

  util::Table table({"version", "7k [s] (measured)", "7k [s] (paper)", "300k [s] (measured)",
                     "300k [s] (paper)"});
  for (const kernels::KernelKind kind : kernels::kAllKernelKinds) {
    const PaperRow paper = paper_row(kind);
    const double m7 = per_eval(report, "7k", kind);
    const double m3 = per_eval(report, "300k", kind);
    table.add_row({std::string(kernels::kernel_name(kind)),
                   std::isnan(m7) ? "n/a" : util::fmt_double(m7, 4),
                   util::fmt_double(paper.t7k, 4),
                   std::isnan(m3) ? "n/a" : util::fmt_double(m3, 4),
                   util::fmt_double(paper.t300k, 4)});
  }
  bench::print_table(table);

  // Fig. 6: normalized speedups vs gold.
  bench::print_header("Fig. 6: speedups normalized to the gold kernel");
  util::Table fig6({"version", "7k speedup (measured)", "7k (paper)", "300k speedup (measured)",
                    "300k (paper)"});
  const double gold7 = per_eval(report, "7k", kernels::KernelKind::Gold);
  const double gold3 = per_eval(report, "300k", kernels::KernelKind::Gold);
  const double paper7_gold = paper_row(kernels::KernelKind::Gold).t7k;
  const double paper3_gold = paper_row(kernels::KernelKind::Gold).t300k;
  for (const kernels::KernelKind kind : kernels::kAllKernelKinds) {
    const PaperRow paper = paper_row(kind);
    const double m7 = per_eval(report, "7k", kind);
    const double m3 = per_eval(report, "300k", kind);
    fig6.add_row({std::string(kernels::kernel_name(kind)),
                  std::isnan(m7) ? "n/a" : util::fmt_double(gold7 / m7, 3),
                  util::fmt_double(paper7_gold / paper.t7k, 3),
                  std::isnan(m3) ? "n/a" : util::fmt_double(gold3 / m3, 3),
                  util::fmt_double(paper3_gold / paper.t300k, 3)});
  }
  bench::print_table(fig6);

  // Modeled P100 estimate for the cuda row (the local "cuda(sim)" row above
  // measures the *host* executing the GPU-structured kernel — semantics, not
  // GPU speed; see DESIGN.md).
  if (ran_300k) {
    bench::print_header("Modeled NVIDIA P100 estimate for the cuda kernel (roofline)");
    const CaseData& c = case_300k();
    simgpu::KernelWorkload w;
    w.nno = c.grid.dense.nno;
    w.ndofs = static_cast<std::uint64_t>(ndofs());
    w.nfreq = 3;
    w.xps = 473;
    w.active_fraction = c.active_fraction;
    const auto est = simgpu::estimate_interpolation(simgpu::DeviceProperties{}, w);
    std::printf("300k case: modeled %s (memory %s, compute %s, overhead %s); paper measured %s\n",
                util::fmt_seconds(est.total_seconds()).c_str(),
                util::fmt_seconds(est.memory_seconds).c_str(),
                util::fmt_seconds(est.compute_seconds).c_str(),
                util::fmt_seconds(est.launch_overhead_seconds).c_str(),
                util::fmt_seconds(0.000275).c_str());
    std::printf("active-point fraction at a random sample: %.4f\n", c.active_fraction);
  }

  const double x867 = per_eval(report, "7k", kernels::KernelKind::X86);
  const double x863 = per_eval(report, "300k", kernels::KernelKind::X86);
  const auto speedup = [](double gold, double x86) {
    return (std::isnan(gold) || std::isnan(x86)) ? std::string("n/a")
                                                 : util::fmt_double(gold / x86, 3) + "x";
  };
  std::printf("\nShape check (measured): compressed/gold speedup on 7k = %s (paper: 4.2x),\n"
              "on 300k = %s (paper: 4.4x).\n",
              speedup(gold7, x867).c_str(),
              ran_300k ? speedup(gold3, x863).c_str() : "n/a");
  return 0;
}

const bool registered = [] {
  for (const kernels::KernelKind kind : kernels::kAllKernelKinds) {
    const std::string name(kernels::kernel_name(kind));
    benchlib::register_benchmark("table2/7k/" + name, [kind](benchlib::State& s) {
      run_kernel_case(s, "7k", kind);
    });
    benchlib::register_benchmark("table2/300k/" + name, [kind](benchlib::State& s) {
      run_kernel_case(s, "300k", kind);
    });
  }
  benchlib::register_report(report_tables);
  return true;
}();

}  // namespace

int main(int argc, char** argv) {
  std::printf("dim=%d ndofs=%d (host ISA tier: %s)\n", dim(), ndofs(),
              std::string(kernels::kernel_name(kernels::best_supported_kernel())).c_str());
  return hddm::benchlib::run_main(argc, argv, "bench_table2_kernels");
}
