// Hierarchization: converting nodal function values into hierarchical
// surpluses (the alpha coefficients of Eq. 14).
//
// Grids here are always processed in ascending level-sum order. Basis
// functions whose level sum equals a point's own level sum vanish at that
// point (same-level hats have disjoint interiors, and coarse points sit on
// the boundary or outside of finer hats), so the surplus of a point is
// exactly
//     alpha_p = f(x_p) - u_{<lsum(p)}(x_p),
// the difference to the interpolant built from strictly coarser points —
// the Ma-Zabaras construction the paper relies on. This holds for adaptive
// grids too, provided they are ancestor-closed (GridStorage::close_ancestors).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sparse_grid/dense_format.hpp"
#include "sparse_grid/grid_storage.hpp"

namespace hddm::sg {

/// In-place hierarchization of a dense grid whose surplus matrix initially
/// contains *nodal values* f(x_p) (point-major, ndofs per point). On return
/// the matrix contains hierarchical surpluses. O(nno^2 * d) — intended for
/// test- and example-scale grids; the time-iteration driver hierarchizes
/// incrementally level-by-level instead.
void hierarchize_in_place(DenseGridData& grid);

/// Runs body(k) for every k in [0, n), in any order and on any threads, and
/// returns once all calls have finished.
using ForEach =
    std::function<void(std::size_t n, const std::function<void(std::size_t)>& body)>;

/// Incremental hierarchization step: given `grid` whose first `n_known`
/// points already hold surpluses (all with level sum < that of every later
/// point), converts the nodal values of points [n_known, nno) into surpluses.
/// Points must be ordered by ascending level sum.
///
/// The tail is processed in batches of equal level sum. A batch's points
/// read only rows that are already final and each writes only its own row,
/// so `for_each` may run a batch's points concurrently; the result is
/// bitwise the serial one. An empty `for_each` runs them in turn.
void hierarchize_tail(DenseGridData& grid, std::uint32_t n_known, const ForEach& for_each = {});

/// Evaluates f at every grid point of `storage` and returns the hierarchized
/// surplus matrix (point-major). `f` maps a coordinate vector in [0,1]^d to
/// ndofs values.
using NodalFunction = std::function<std::vector<double>(std::span<const double>)>;
DenseGridData hierarchize_function(const GridStorage& storage, int ndofs, const NodalFunction& f);

}  // namespace hddm::sg
