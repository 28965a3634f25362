#pragma once
// The sweep order of every Gauss-Seidel solve in cfd/: a skewed wavefront
// (Lamport's hyperplane method) that keeps lexicographic Gauss-Seidel's data
// flow, and so its bits, while exposing independent nodes to the core.
//
// Lexicographic order (rows j ascending, columns i ascending in each row)
// updates node (j, i) after its west (j, i - 1) and south (j - 1, i)
// neighbours and before its east and north ones, so each update reads new
// west/south and old east/north values, and waits on the update just before
// it. The wavefront takes the interior rows in groups of kWavefrontRows: at
// step t, row j0 + r of the group starting at j0 visits column t - r. Node
// (j0 + r, i) then runs at step i + r, after its west (step i + r - 1) and
// its south (step i + r - 1 in the group, or an earlier group), and before
// its east and north (step i + r + 1, or a later group). Every node reads
// exactly the values it reads in lexicographic order, and the group's rows
// form independent chains that the core overlaps.

#include <algorithm>
#include <cstddef>
#include <utility>

namespace sgm::cfd {

/// Rows per wavefront group.
inline constexpr int kWavefrontRows = 8;

/// Calls `visit(k)` once for each interior node (j, i), 1 <= j, i <= n - 2,
/// of a row-major n x n grid, with k = j n + i its flat index (so its
/// west, east, south and north neighbours are k - 1, k + 1, k - n, k + n).
/// Each node is visited after its interior west and south neighbours and
/// before its east and north ones, as in lexicographic order, so a
/// Gauss-Seidel update gives the same bits in either order. `visit` must
/// not otherwise depend on the order of the visits. Single-threaded.
template <class Visit>
void wavefront_sweep(int n, Visit&& visit) {
  const std::ptrdiff_t stride = n;
  const int m = n - 2;  // interior nodes per row and per column
  for (int j0 = 1; j0 <= m; j0 += kWavefrontRows) {
    const int rows = std::min(kWavefrontRows, m + 1 - j0);
    const std::ptrdiff_t first = stride * j0;  // flat index of (j0, 0)
    // Steps where some rows of the group fall outside columns 1 .. m.
    const auto ragged_step = [&](int t) {
      for (int r = 0; r < rows; ++r) {
        const int i = t - r;
        if (i >= 1 && i <= m) visit(first + r * stride + i);
      }
    };
    // Steps where every row is in range: straight-line code over the
    // compile-time row index r, at flat index first + t + r (n - 1).
    const auto full_step = [&]<int... R>(int t,
                                         std::integer_sequence<int, R...>) {
      (visit(first + t + R * (stride - 1)), ...);
    };
    int t = 1;
    if (rows == kWavefrontRows) {
      for (; t < kWavefrontRows; ++t) ragged_step(t);
      for (; t <= m; ++t)
        full_step(t, std::make_integer_sequence<int, kWavefrontRows>{});
    }
    for (; t < m + rows; ++t) ragged_step(t);
  }
}

}  // namespace sgm::cfd
