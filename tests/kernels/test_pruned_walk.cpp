// The pruned compressed walk against the unpruned one it replaced.
//
// walk<W> and kernels::evaluate_with_gradient jump over a block of points
// with a common chain prefix once the prefix product is 0.0 (the skip table
// of core::compress). That must not change a single bit. The tests below
// keep the unpruned loop as a local reference walk, also run every tier on
// a copy of the grid whose skip table never skips, and compare with memcmp.
// The grids have long blocks (adaptive, lexicographically sorted), short
// ones (reorder_points = false) or none (nfreq == 0, one point); the points
// are random, grid nodes, support edges, dyadic coordinates and corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/kernel_api.hpp"
#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/multi_index.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::kernels {
namespace {

// The unpruned chain walk: every point, in order, early exit per chain, and
// v += t * s as one multiply and one add. The x86 and avx tiers round
// exactly so; avx2 and avx512 fuse the multiply-add in their vector body
// (and in the tail wherever the compiler contracts it).
void reference_walk(const core::CompressedGridData& grid, const double* x, double* value) {
  std::vector<double> xpv(grid.xps.size(), 1.0);
  for (std::size_t k = 1; k < grid.xps.size(); ++k)
    xpv[k] = sg::hat_value({grid.xps[k].l, grid.xps[k].i}, x[grid.xps[k].j]);
  std::fill(value, value + grid.ndofs, 0.0);
  const std::uint32_t* chain = grid.chains.data();
  for (std::uint32_t p = 0; p < grid.nno; ++p, chain += grid.nfreq) {
    double temp = 1.0;
    for (int f = 0; f < grid.nfreq; ++f) {
      if (!chain[f]) break;
      temp *= xpv[chain[f]];
      if (temp == 0.0) break;
    }
    if (temp == 0.0) continue;
    const double* s = grid.surplus_row(p);
    for (int dof = 0; dof < grid.ndofs; ++dof) value[dof] += temp * s[dof];
  }
}

// The same grid with every skip target set to p + 1, so each tier's own
// walk visits every point: the unpruned walk with the tier's rounding.
core::CompressedGridData without_skips(core::CompressedGridData grid) {
  for (std::uint32_t p = 0; p < grid.nno; ++p)
    std::fill_n(grid.skip.begin() + static_cast<std::ptrdiff_t>(p) * grid.nfreq, grid.nfreq,
                p + 1);
  return grid;
}

// The unpruned value + gradient walk (forward prefix products, backward
// suffix products), scalar.
void reference_walk_with_gradient(const core::CompressedGridData& grid, const double* x,
                                  double* value, double* grad) {
  const int nd = grid.ndofs;
  const auto d = static_cast<std::size_t>(grid.dim);
  std::vector<double> xpv(grid.xps.size(), 1.0), xpd(grid.xps.size(), 0.0);
  std::vector<double> pre(static_cast<std::size_t>(grid.nfreq));
  for (std::size_t k = 1; k < grid.xps.size(); ++k) {
    const core::XpsEntry& e = grid.xps[k];
    xpv[k] = sg::hat_value({e.l, e.i}, x[e.j]);
    xpd[k] = sg::hat_derivative({e.l, e.i}, x[e.j]);
  }
  std::fill(value, value + nd, 0.0);
  std::fill(grad, grad + static_cast<std::size_t>(nd) * d, 0.0);
  const std::uint32_t* chain = grid.chains.data();
  for (std::uint32_t p = 0; p < grid.nno; ++p, chain += grid.nfreq) {
    double temp = 1.0;
    int len = 0;
    bool dead = false;
    for (int f = 0; f < grid.nfreq; ++f) {
      if (!chain[f]) break;
      pre[static_cast<std::size_t>(f)] = temp;
      temp *= xpv[chain[f]];
      if (temp == 0.0) {
        dead = true;
        break;
      }
      ++len;
    }
    if (dead) continue;
    const double* srow = grid.surplus_row(p);
    for (int dof = 0; dof < nd; ++dof) value[dof] += temp * srow[dof];
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

struct Shape {
  std::string name;
  sg::DenseGridData dense;
  core::CompressOptions options;
};

sg::DenseGridData with_random_surpluses(const sg::GridStorage& g, int ndofs, std::uint64_t seed) {
  sg::DenseGridData dense = sg::make_dense_grid(g, ndofs);
  util::Rng rng(seed);
  for (double& s : dense.surplus) s = rng.uniform(-1.0, 1.0);
  return dense;
}

sg::DenseGridData regular(int d, int level, int ndofs, std::uint64_t seed) {
  sg::GridStorage g(d);
  sg::build_regular_grid(g, level);
  return with_random_surpluses(g, ndofs, seed);
}

// Regular level 2 plus `rounds` surplus-driven refinements of a function
// with kinks, so the grid is deep in a few places and shallow elsewhere.
sg::DenseGridData adaptive(int d, int rounds, int max_level, int ndofs, std::uint64_t seed) {
  const auto f = [](std::span<const double> x) {
    double v = 1.0;
    for (std::size_t t = 0; t < x.size(); ++t)
      v *= 0.5 + std::fabs(x[t] - 0.3 - 0.1 * static_cast<double>(t % 3));
    return std::vector<double>{v};
  };
  sg::GridStorage g(d);
  sg::build_regular_grid(g, 2);
  std::uint32_t first = 0;
  for (int r = 0; r < rounds; ++r) {
    const sg::DenseGridData h = sg::hierarchize_function(g, 1, f);
    const auto ind = sg::max_abs_indicator(h.surplus, h.nno, 1);
    const std::uint32_t before = g.size();
    sg::refine_by_surplus(g, first, std::span<const double>(ind).subspan(first),
                          {1e-3, max_level, true});
    first = before;
  }
  return with_random_surpluses(g, ndofs, seed);
}

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  const auto add = [&out](std::string name, sg::DenseGridData dense, bool reorder = true) {
    out.push_back({std::move(name), std::move(dense), core::CompressOptions{reorder}});
  };
  add("regular_d1_l6_nd3", regular(1, 6, 3, 11));
  add("regular_d2_l5_nd1", regular(2, 5, 1, 12));
  add("regular_d3_l4_nd7", regular(3, 4, 7, 13));
  add("regular_d5_l3_nd9", regular(5, 3, 9, 14));
  add("regular_d10_l3_nd16", regular(10, 3, 16, 15));
  add("adaptive_d2_nd4", adaptive(2, 7, 10, 4, 16));
  add("adaptive_d3_nd5", adaptive(3, 3, 7, 5, 17));
  add("adaptive_d4_nd8", adaptive(4, 5, 7, 8, 18));
  add("adaptive_d4_nd8_unordered", adaptive(4, 5, 7, 8, 18), /*reorder=*/false);
  add("regular_d3_l4_nd2_unordered", regular(3, 4, 2, 19), /*reorder=*/false);
  add("level1_d5_nd3", regular(5, 1, 3, 20));  // one root point, nfreq == 0

  // One point that is not the root: a single chain of two factors, so the
  // only skip target is nno.
  sg::DenseGridData one;
  one.dim = 3;
  one.ndofs = 2;
  one.nno = 1;
  one.pairs = {{3, 1}, {1, 1}, {2, 2}};
  one.surplus = {0.75, -1.25};
  add("one_point_d3_nd2", std::move(one));
  return out;
}

// Evaluation points: random, every grid node (or the first 200), both
// support edges of a node's first non-root factor, dyadic coordinates, and
// the all-0, all-1 and alternating corners.
std::vector<std::vector<double>> points(const sg::DenseGridData& dense, std::uint64_t seed) {
  const auto d = static_cast<std::size_t>(dense.dim);
  util::Rng rng(seed);
  std::vector<std::vector<double>> xs;
  for (int k = 0; k < 200; ++k) {
    std::vector<double> x(d);
    for (double& v : x) v = rng.uniform();
    xs.push_back(x);
  }
  for (std::uint32_t p = 0; p < std::min<std::uint32_t>(dense.nno, 200); ++p) {
    const auto node = sg::point_coordinates(dense.point(p));
    xs.push_back(node);
    for (std::size_t t = 0; t < d; ++t) {
      const sg::LevelIndex li = dense.point(p)[t];
      if (li.l == 1) continue;
      const double half_width = sg::pow2(1 - static_cast<int>(li.l));
      for (const double edge : {node[t] - half_width, node[t] + half_width}) {
        if (edge < 0.0 || edge > 1.0) continue;
        std::vector<double> x = node;
        x[t] = edge;
        xs.push_back(x);
      }
      break;
    }
  }
  for (int k = 0; k < 100; ++k) {
    std::vector<double> x(d);
    const double steps = std::ldexp(1.0, 1 + static_cast<int>(rng.uniform_index(7)));
    for (double& v : x) v = std::floor(rng.uniform() * (steps + 1)) / steps;
    xs.push_back(x);
  }
  std::vector<double> zeros(d, 0.0), ones(d, 1.0), alternating(d);
  for (std::size_t t = 0; t < d; ++t) alternating[t] = static_cast<double>(t % 2);
  xs.push_back(zeros);
  xs.push_back(ones);
  xs.push_back(alternating);
  return xs;
}

std::vector<KernelKind> compressed_tiers() {
  std::vector<KernelKind> kinds;
  for (const KernelKind k : {KernelKind::X86, KernelKind::Avx, KernelKind::Avx2, KernelKind::Avx512})
    if (kernel_supported(k)) kinds.push_back(k);
  return kinds;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(PrunedWalk, SkipTableInvariants) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const core::CompressedGridData c = core::compress(shape.dense, shape.options);
    ASSERT_EQ(c.skip.size(), static_cast<std::size_t>(c.nno) * c.nfreq);
    for (std::uint32_t p = 0; p < c.nno; ++p) {
      const std::uint32_t* skip = c.skip_row(p);
      for (int f = 0; f < c.nfreq; ++f) {
        ASSERT_GT(skip[f], p);
        ASSERT_LE(skip[f], c.nno);
        if (f > 0) {
          ASSERT_LE(skip[f], skip[f - 1]);
        }
        // Every point of the block shares slots 0..f with p; the point at
        // the skip target (if any) does not.
        for (std::uint32_t q = p + 1; q < skip[f]; ++q)
          ASSERT_TRUE(std::equal(c.chain_row(p), c.chain_row(p) + f + 1, c.chain_row(q)))
              << "p=" << p << " f=" << f << " q=" << q;
        if (skip[f] < c.nno) {
          ASSERT_FALSE(std::equal(c.chain_row(p), c.chain_row(p) + f + 1, c.chain_row(skip[f])))
              << "p=" << p << " f=" << f;
        }
      }
    }
  }
}

TEST(PrunedWalk, SortedGridsHaveLongBlocks) {
  // The skip pays only because sorting makes blocks long: on a sorted
  // adaptive grid the first slot's blocks average many points.
  const core::CompressedGridData c = core::compress(adaptive(4, 3, 6, 1, 18));
  ASSERT_GT(c.nfreq, 0);
  std::uint32_t blocks = 0;
  for (std::uint32_t p = 0; p < c.nno; p = c.skip_row(p)[0]) ++blocks;
  EXPECT_GT(c.nno, 8 * blocks);
}

TEST(PrunedWalk, EveryTierEqualsUnprunedWalkBitwise) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const core::CompressedGridData c = core::compress(shape.dense, shape.options);
    const core::CompressedGridData full = without_skips(c);
    const auto xs = points(shape.dense, 7);
    ASSERT_GE(xs.size(), 300u);
    std::vector<double> got(static_cast<std::size_t>(c.ndofs));
    std::vector<double> unpruned(got.size()), reference(got.size());
    for (const KernelKind kind : compressed_tiers()) {
      SCOPED_TRACE(std::string(kernel_name(kind)));
      const auto kernel = make_kernel(kind, &shape.dense, &c);
      const auto unpruned_kernel = make_kernel(kind, &shape.dense, &full);
      const bool scalar_rounding = kind == KernelKind::X86 || kind == KernelKind::Avx;
      for (const auto& x : xs) {
        kernel->evaluate(x.data(), got.data());
        unpruned_kernel->evaluate(x.data(), unpruned.data());
        ASSERT_TRUE(same_bytes(got, unpruned)) << "x[0]=" << x[0];
        if (scalar_rounding) {
          reference_walk(c, x.data(), reference.data());
          ASSERT_TRUE(same_bytes(got, reference)) << "x[0]=" << x[0];
        }
      }
    }
  }
}

TEST(PrunedWalk, GradientWalkEqualsUnprunedWalkBitwise) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const core::CompressedGridData c = core::compress(shape.dense, shape.options);
    const auto nd = static_cast<std::size_t>(c.ndofs);
    const auto d = static_cast<std::size_t>(c.dim);
    const core::CompressedGridData full = without_skips(c);
    std::vector<double> value(nd), grad(nd * d), want_value(nd), want_grad(nd * d), x86(nd);
    const auto x86_kernel = make_kernel(KernelKind::X86, &shape.dense, &c);
    for (const auto& x : points(shape.dense, 8)) {
      evaluate_with_gradient(c, x.data(), value.data(), grad.data());
      reference_walk_with_gradient(c, x.data(), want_value.data(), want_grad.data());
      ASSERT_TRUE(same_bytes(value, want_value)) << "x[0]=" << x[0];
      ASSERT_TRUE(same_bytes(grad, want_grad)) << "x[0]=" << x[0];
      evaluate_with_gradient(full, x.data(), want_value.data(), want_grad.data());
      ASSERT_TRUE(same_bytes(value, want_value)) << "x[0]=" << x[0];
      ASSERT_TRUE(same_bytes(grad, want_grad)) << "x[0]=" << x[0];
      x86_kernel->evaluate(x.data(), x86.data());
      ASSERT_TRUE(same_bytes(value, x86)) << "x[0]=" << x[0];
    }
  }
}

}  // namespace
}  // namespace hddm::kernels
