#include "sparse_grid/basis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace hddm::sg {
namespace {

TEST(Basis, RootIsConstantOne) {
  for (const double x : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(hat_value(kRootPair, x), 1.0);
}

TEST(Basis, RootPointIsCenter) { EXPECT_DOUBLE_EQ(point_coordinate(kRootPair), 0.5); }

TEST(Basis, Level2PointsAreBoundaries) {
  EXPECT_DOUBLE_EQ(point_coordinate({2, 0}), 0.0);
  EXPECT_DOUBLE_EQ(point_coordinate({2, 2}), 1.0);
}

TEST(Basis, Level2HatsPeakAtBoundaries) {
  EXPECT_DOUBLE_EQ(hat_value({2, 0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(hat_value({2, 0}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(hat_value({2, 0}, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(hat_value({2, 2}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(hat_value({2, 2}, 0.5), 0.0);
}

TEST(Basis, InteriorHatSupportWidth) {
  // (3,1): center 0.25, support (0, 0.5).
  EXPECT_DOUBLE_EQ(point_coordinate({3, 1}), 0.25);
  EXPECT_DOUBLE_EQ(hat_value({3, 1}, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(hat_value({3, 1}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(hat_value({3, 1}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(hat_value({3, 1}, 0.125), 0.5);
  EXPECT_DOUBLE_EQ(hat_value({3, 1}, 0.75), 0.0);  // clamped outside
}

TEST(Basis, HatIsNonNegativeEverywhere) {
  for (level_t l = 1; l <= 6; ++l) {
    const index_t top = level_cardinality(l);
    for (index_t k = 0; k < top; ++k) {
      const index_t i = (l == 1) ? 1 : (l == 2 ? 2 * k : 2 * k + 1);
      for (double x = 0.0; x <= 1.0; x += 1.0 / 64)
        EXPECT_GE(hat_value({l, i}, x), 0.0);
    }
  }
}

TEST(Basis, ValidPairsMatchIndexSets) {
  EXPECT_TRUE(is_valid_pair({1, 1}));
  EXPECT_FALSE(is_valid_pair({1, 0}));
  EXPECT_TRUE(is_valid_pair({2, 0}));
  EXPECT_FALSE(is_valid_pair({2, 1}));
  EXPECT_TRUE(is_valid_pair({2, 2}));
  EXPECT_TRUE(is_valid_pair({3, 1}));
  EXPECT_TRUE(is_valid_pair({3, 3}));
  EXPECT_FALSE(is_valid_pair({3, 2}));
  EXPECT_FALSE(is_valid_pair({3, 5}));  // >= 2^(l-1)
  EXPECT_TRUE(is_valid_pair({4, 7}));
}

TEST(Basis, LevelCardinalities) {
  EXPECT_EQ(level_cardinality(1), 1u);
  EXPECT_EQ(level_cardinality(2), 2u);
  EXPECT_EQ(level_cardinality(3), 2u);
  EXPECT_EQ(level_cardinality(4), 4u);
  EXPECT_EQ(level_cardinality(5), 8u);
}

TEST(Basis, ChildrenOfRootAreBoundaries) {
  LevelIndex kids[2];
  ASSERT_EQ(children(kRootPair, kids), 2);
  EXPECT_EQ(kids[0], (LevelIndex{2, 0}));
  EXPECT_EQ(kids[1], (LevelIndex{2, 2}));
}

TEST(Basis, BoundaryPointsHaveOneChild) {
  LevelIndex kids[2];
  ASSERT_EQ(children({2, 0}, kids), 1);
  EXPECT_EQ(kids[0], (LevelIndex{3, 1}));
  ASSERT_EQ(children({2, 2}, kids), 1);
  EXPECT_EQ(kids[0], (LevelIndex{3, 3}));
}

TEST(Basis, InteriorPointsHaveTwoChildren) {
  LevelIndex kids[2];
  ASSERT_EQ(children({3, 1}, kids), 2);
  EXPECT_EQ(kids[0], (LevelIndex{4, 1}));
  EXPECT_EQ(kids[1], (LevelIndex{4, 3}));
  ASSERT_EQ(children({4, 5}, kids), 2);
  EXPECT_EQ(kids[0], (LevelIndex{5, 9}));
  EXPECT_EQ(kids[1], (LevelIndex{5, 11}));
}

TEST(Basis, ParentInvertsChildren) {
  // Every child's parent is the original pair, across several levels.
  LevelIndex stack[64];
  int top = 0;
  stack[top++] = kRootPair;
  while (top > 0) {
    const LevelIndex p = stack[--top];
    if (p.l >= 6) continue;
    LevelIndex kids[2];
    const int n = children(p, kids);
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(parent(kids[c]), p) << "level " << int(kids[c].l) << " index " << kids[c].i;
      stack[top++] = kids[c];
    }
  }
}

TEST(Basis, ChildrenAreValidPairs) {
  LevelIndex kids[2];
  for (const LevelIndex p : {LevelIndex{3, 1}, LevelIndex{3, 3}, LevelIndex{4, 7}}) {
    const int n = children(p, kids);
    for (int c = 0; c < n; ++c) EXPECT_TRUE(is_valid_pair(kids[c]));
  }
}

TEST(Basis, ChildCentersLieInParentSupport) {
  LevelIndex kids[2];
  for (const LevelIndex p : {LevelIndex{3, 1}, LevelIndex{4, 5}, LevelIndex{5, 11}}) {
    const int n = children(p, kids);
    for (int c = 0; c < n; ++c)
      EXPECT_GT(hat_value(p, point_coordinate(kids[c])), 0.0);
  }
}

TEST(Basis, HatVanishesAtCoarserGridPoints) {
  // Key hierarchization property: a level-l hat (l>2) vanishes at all grid
  // points of strictly coarser levels.
  for (level_t l = 3; l <= 6; ++l) {
    for (index_t i = 1; i < (index_t{1} << (l - 1)); i += 2) {
      for (level_t lc = 1; lc < l; ++lc) {
        const index_t ctop = (lc == 1) ? 1 : (lc == 2 ? 2 : (index_t{1} << (lc - 1)));
        for (index_t ic = (lc == 2 ? 0 : 1); ic <= ctop; ic += (lc == 1 ? 1 : 2)) {
          if (!is_valid_pair({lc, ic})) continue;
          EXPECT_DOUBLE_EQ(hat_value({l, i}, point_coordinate({lc, ic})), 0.0)
              << "phi_(" << int(l) << "," << i << ") at x_(" << int(lc) << "," << ic << ")";
        }
      }
    }
  }
}

TEST(Basis, HatDerivativeSlopesAndConventions) {
  // Interior hat (3,1): center 0.25, support (0, 0.5), slope +/-4.
  EXPECT_DOUBLE_EQ(hat_derivative({3, 1}, 0.1), 4.0);    // left flank
  EXPECT_DOUBLE_EQ(hat_derivative({3, 1}, 0.4), -4.0);   // right flank
  EXPECT_DOUBLE_EQ(hat_derivative({3, 1}, 0.25), 0.0);   // kink: subgradient midpoint
  EXPECT_DOUBLE_EQ(hat_derivative({3, 1}, 0.5), 0.0);    // support edge
  EXPECT_DOUBLE_EQ(hat_derivative({3, 1}, 0.75), 0.0);   // outside
  // Boundary hats (level 2): support half the cube, slope 2 toward the face.
  EXPECT_DOUBLE_EQ(hat_derivative({2, 0}, 0.3), -2.0);
  EXPECT_DOUBLE_EQ(hat_derivative({2, 2}, 0.7), 2.0);
  EXPECT_DOUBLE_EQ(hat_derivative({2, 2}, 0.3), 0.0);  // outside its support
  EXPECT_DOUBLE_EQ(hat_derivative({2, 0}, 0.0), 0.0);  // kink at its own center
  // The constant level-1 basis has zero slope everywhere.
  EXPECT_DOUBLE_EQ(hat_derivative({1, 1}, 0.37), 0.0);
}

TEST(Basis, HatDerivativeMatchesCentralDifferenceOffKinks) {
  const double h = 1e-7;
  for (level_t l = 2; l <= 5; ++l) {
    const index_t top = (l == 2) ? 2 : (index_t{1} << (l - 1));
    for (index_t i = (l == 2 ? 0 : 1); i <= top; i += (l == 2 ? 2 : 2)) {
      if (!is_valid_pair({l, i})) continue;
      for (const double x : {0.137, 0.318, 0.507, 0.713, 0.921}) {
        const double fd = (hat_value({l, i}, x + h) - hat_value({l, i}, x - h)) / (2 * h);
        EXPECT_NEAR(hat_derivative({l, i}, x), fd, 1e-6)
            << "phi'_(" << int(l) << "," << i << ") at " << x;
      }
    }
  }
}

// The std::ldexp formulas the call-free basis replaced; the new functions
// must reproduce them bit for bit.
double ldexp_point_coordinate(LevelIndex li) {
  if (li.l == 1) return 0.5;
  return std::ldexp(static_cast<double>(li.i), 1 - static_cast<int>(li.l));
}

double ldexp_hat_value(LevelIndex li, double x) {
  if (li.l == 1) return 1.0;
  const double center = ldexp_point_coordinate(li);
  const double scale = std::ldexp(1.0, static_cast<int>(li.l) - 1);
  const double v = 1.0 - scale * (x > center ? x - center : center - x);
  return v > 0.0 ? v : 0.0;
}

double ldexp_hat_derivative(LevelIndex li, double x) {
  if (li.l == 1) return 0.0;
  const double center = ldexp_point_coordinate(li);
  if (x == center) return 0.0;
  const double scale = std::ldexp(1.0, static_cast<int>(li.l) - 1);
  const double dist = x > center ? x - center : center - x;
  if (1.0 - scale * dist <= 0.0) return 0.0;
  return x > center ? -scale : scale;
}

TEST(Basis, Pow2IsLdexpOfOne) {
  for (int e = -1022; e <= 1023; ++e)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pow2(e)),
              std::bit_cast<std::uint64_t>(std::ldexp(1.0, e)))
        << "e=" << e;
}

TEST(Basis, CallFreeBasisMatchesLdexpFormulasBitwise) {
  util::Rng rng(20261017);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int l = 2; l <= 30; ++l) {
    const auto lv = static_cast<level_t>(l);
    // Both boundary pairs at level 2; otherwise the first and last odd index
    // and a few random odd ones.
    std::vector<index_t> indices;
    if (l == 2) {
      indices = {0, 2};
    } else {
      const index_t top = (index_t{1} << (l - 1)) - 1;
      indices = {1, top};
      for (int k = 0; k < 4; ++k)
        indices.push_back(2 * static_cast<index_t>(rng.uniform_index(top / 2 + 1)) + 1);
    }
    for (const index_t i : indices) {
      const LevelIndex li{lv, i};
      ASSERT_TRUE(is_valid_pair(li));
      const double center = ldexp_point_coordinate(li);
      EXPECT_EQ(bits(point_coordinate(li)), bits(center));

      // Random x, dyadic x at this and nearby levels, the node itself, its
      // support edges, the next doubles around the node, 0 and 1.
      std::vector<double> xs{0.0, 1.0, center, std::nextafter(center, 0.0),
                             std::nextafter(center, 1.0), center - std::ldexp(1.0, 1 - l),
                             center + std::ldexp(1.0, 1 - l)};
      for (int k = 0; k < 16; ++k) xs.push_back(rng.uniform());
      for (const int m : {l - 1, l, l + 1, l + 7}) {
        for (int k = 0; k < 4; ++k) {
          const double steps = std::ldexp(1.0, m);
          xs.push_back(std::floor(rng.uniform() * steps) / steps);
        }
      }
      for (const double x : xs) {
        EXPECT_EQ(bits(hat_value(li, x)), bits(ldexp_hat_value(li, x)))
            << "phi_(" << l << "," << i << ") at " << x;
        EXPECT_EQ(bits(hat_derivative(li, x)), bits(ldexp_hat_derivative(li, x)))
            << "phi'_(" << l << "," << i << ") at " << x;
      }
    }
  }
}

}  // namespace
}  // namespace hddm::sg
