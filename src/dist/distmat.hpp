// 2D-distributed sparse matrix over the simulated √p × √p process grid
// (paper §V-A: CombBLAS's square-grid decomposition).
//
// The global M × N matrix is tiled: grid row gi owns rows
// [split(M, side, gi), split(M, side, gi+1)), grid column gj the analogous
// column range; rank (gi, gj) stores its tile as a local DCSR SpMat in
// tile-local coordinates. All collective reshapes (transpose, the stripe
// splits of the blocked SUMMA §VI-A, the MCL's rank stripes) move real data
// between the rank-local tiles deterministically; the *time* of the wire
// traffic is charged to the MachineModel by the callers or the split
// helpers below. They work tile to tile (a transposed tile, or contiguous
// row slices of the tiles a target window overlaps), never through global
// triples.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/grid.hpp"
#include "sim/runtime.hpp"
#include "sparse/matrix.hpp"
#include "sparse/triple.hpp"
#include "util/thread_pool.hpp"

namespace pastis::dist {

using sparse::Index;
using sparse::Offset;
using sparse::SpMat;
using sparse::Triple;

template <typename T>
class DistSpMat {
 public:
  DistSpMat() = default;

  /// Empty matrix of the given global shape on `grid`.
  DistSpMat(const sim::ProcGrid& grid, Index nrows, Index ncols)
      : grid_(grid), nrows_(nrows), ncols_(ncols) {
    locals_.resize(static_cast<std::size_t>(grid_.size()));
    for (int r = 0; r < grid_.size(); ++r) {
      locals_[static_cast<std::size_t>(r)] =
          SpMat<T>(local_nrows(r), local_ncols(r));
    }
  }

  [[nodiscard]] const sim::ProcGrid& grid() const { return grid_; }
  [[nodiscard]] Index nrows() const { return nrows_; }
  [[nodiscard]] Index ncols() const { return ncols_; }

  /// Global offset of grid row `gi` / grid column `gj`.
  [[nodiscard]] Index row_begin(int gi) const {
    return sim::ProcGrid::split_point(nrows_, grid_.side(), gi);
  }
  [[nodiscard]] Index col_begin(int gj) const {
    return sim::ProcGrid::split_point(ncols_, grid_.side(), gj);
  }

  [[nodiscard]] Index local_nrows(int rank) const {
    const int gi = grid_.row_of(rank);
    return row_begin(gi + 1) - row_begin(gi);
  }
  [[nodiscard]] Index local_ncols(int rank) const {
    const int gj = grid_.col_of(rank);
    return col_begin(gj + 1) - col_begin(gj);
  }

  [[nodiscard]] const SpMat<T>& local(int rank) const {
    return locals_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] SpMat<T>& local(int rank) {
    return locals_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] Offset nnz() const {
    Offset total = 0;
    for (const auto& l : locals_) total += l.nnz();
    return total;
  }

  /// Logical bytes across all tiles.
  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const auto& l : locals_) total += l.bytes();
    return total;
  }

  /// Global transpose (pairwise tile exchange on the real machine). The
  /// caller charges the wire time; the data movement itself is exact. Both
  /// grids split a dimension the same way, so tile (gj, gi) of the
  /// transpose is exactly tile (gi, gj) transposed — each a local O(nnz)
  /// radix pass, one tile per pool task.
  [[nodiscard]] DistSpMat transposed(util::ThreadPool* pool = nullptr) const {
    DistSpMat out(grid_, ncols_, nrows_);
    util::for_each_index(pool, locals_.size(), [&](std::size_t rank) {
      const int r = static_cast<int>(rank);
      out.local(grid_.rank_of(grid_.col_of(r), grid_.row_of(r))) =
          locals_[rank].transposed();
    });
    return out;
  }

 private:
  sim::ProcGrid grid_{1};
  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<SpMat<T>> locals_;  // one tile per rank, tile-local coords
};

/// The window [r0, r1) × [c0, c1) of A as one SpMat in window-local
/// coordinates, assembled from contiguous row-range slices of the tiles it
/// overlaps: grid rows in order, and within a grid row each row's segments
/// concatenated across the overlapped tiles in grid-column order (tiles
/// along a grid row own consecutive disjoint column ranges). The result is
/// sorted DCSR by construction — no triples, no sort, no dedup, values
/// bit-exact. Every reshape below (stripe splits, grid-row and grid-column
/// strips, rank stripes) is such a window.
template <typename T>
[[nodiscard]] SpMat<T> gather_window(const DistSpMat<T>& A, Index r0, Index r1,
                                     Index c0, Index c1) {
  assert(r0 <= r1 && r1 <= A.nrows() && c0 <= c1 && c1 <= A.ncols());
  std::vector<Index> row_ids;
  std::vector<Offset> row_ptr{0};
  std::vector<Index> cols;
  std::vector<T> vals;
  if (r0 < r1 && c0 < c1) {
    const sim::ProcGrid& grid = A.grid();
    const int side = grid.side();
    const int gj0 = sim::ProcGrid::part_of(c0, A.ncols(), side);
    const int gj1 = sim::ProcGrid::part_of(c1 - 1, A.ncols(), side);
    // One tile's share of the window in the current grid row: directory
    // slots [k, end) and tile-local columns [lo, hi) (`whole` when the
    // tile's columns all fall inside the window).
    struct Slice {
      const SpMat<T>* tile;
      std::size_t k, end;
      Index lo, hi, col_begin;
      bool whole;
      /// Nonzero range of directory slot `q` inside the column window.
      [[nodiscard]] std::pair<Offset, Offset> span(std::size_t q) const {
        Offset b = tile->row_begin(q);
        Offset e = tile->row_end(q);
        if (!whole) {
          const Index* first = tile->col_data(b);
          const Index* last = tile->col_data(e);
          b += static_cast<Offset>(std::lower_bound(first, last, lo) - first);
          e -= static_cast<Offset>(last - std::lower_bound(first, last, hi));
        }
        return {b, e};
      }
    };
    std::vector<Slice> slices;
    const int gi1 = sim::ProcGrid::part_of(r1 - 1, A.nrows(), side);
    for (int gi = sim::ProcGrid::part_of(r0, A.nrows(), side); gi <= gi1;
         ++gi) {
      const Index rb = A.row_begin(gi);
      const Index lo = std::max(r0, rb) - rb;
      const Index hi = std::min(r1, A.row_begin(gi + 1)) - rb;
      slices.clear();
      Offset nnz = 0;
      for (int gj = gj0; gj <= gj1; ++gj) {
        const SpMat<T>& t = A.local(grid.rank_of(gi, gj));
        const auto ids = t.row_ids();
        const auto k = static_cast<std::size_t>(
            std::lower_bound(ids.begin(), ids.end(), lo) - ids.begin());
        const auto end = static_cast<std::size_t>(
            std::lower_bound(ids.begin(), ids.end(), hi) - ids.begin());
        if (k == end) continue;
        const Index cb = A.col_begin(gj);
        const Index ce = A.col_begin(gj + 1);
        const Slice sl{&t, k, end, std::max(c0, cb) - cb, std::min(c1, ce) - cb,
                       cb, c0 <= cb && ce <= c1};
        if (sl.whole) {
          nnz += t.row_begin(end) - t.row_begin(k);
        } else {
          for (std::size_t q = k; q < end; ++q) {
            const auto [b, e] = sl.span(q);
            nnz += e - b;
          }
        }
        slices.push_back(sl);
      }
      cols.reserve(cols.size() + nnz);
      vals.reserve(vals.size() + nnz);
      while (true) {
        bool any = false;
        Index row = 0;
        for (const auto& sl : slices) {
          if (sl.k == sl.end) continue;
          const Index r = sl.tile->row_id(sl.k);
          if (!any || r < row) row = r;
          any = true;
        }
        if (!any) break;
        const std::size_t row_start = cols.size();
        for (auto& sl : slices) {
          if (sl.k == sl.end || sl.tile->row_id(sl.k) != row) continue;
          const auto [b, e] = sl.span(sl.k++);
          for (Offset o = b; o < e; ++o) {
            cols.push_back(sl.tile->col(o) + sl.col_begin - c0);
            vals.push_back(sl.tile->val(o));
          }
        }
        if (cols.size() > row_start) {
          row_ids.push_back(row + rb - r0);
          row_ptr.push_back(static_cast<Offset>(cols.size()));
        }
      }
    }
  }
  return SpMat<T>::from_sorted_parts(r1 - r0, c1 - c0, std::move(row_ids),
                                     std::move(row_ptr), std::move(cols),
                                     std::move(vals));
}

namespace detail {

/// Splits M into `nb` stripes along its rows (`by_rows`) or columns, each
/// redistributed over the runtime's grid: every stripe tile is the window
/// of M it covers. Charges the all-to-all redistribution to kSparseOther.
template <typename T>
[[nodiscard]] std::vector<DistSpMat<T>> split_stripes(sim::SimRuntime& rt,
                                                      const DistSpMat<T>& M,
                                                      int nb, bool by_rows,
                                                      util::ThreadPool* pool) {
  const Index n = by_rows ? M.nrows() : M.ncols();
  std::vector<DistSpMat<T>> stripes;
  stripes.reserve(static_cast<std::size_t>(nb));
  for (int s = 0; s < nb; ++s) {
    const Index extent = sim::ProcGrid::split_point(n, nb, s + 1) -
                         sim::ProcGrid::split_point(n, nb, s);
    stripes.emplace_back(rt.grid(), by_rows ? extent : M.nrows(),
                         by_rows ? M.ncols() : extent);
  }
  const auto p = static_cast<std::size_t>(rt.grid().size());
  util::for_each_index(pool, stripes.size() * p, [&](std::size_t job) {
    const int s = static_cast<int>(job / p);
    const int rank = static_cast<int>(job % p);
    auto& S = stripes[static_cast<std::size_t>(s)];
    const int gi = rt.grid().row_of(rank);
    const int gj = rt.grid().col_of(rank);
    const Index shift = sim::ProcGrid::split_point(n, nb, s);
    const Index dr = by_rows ? shift : 0;
    const Index dc = by_rows ? 0 : shift;
    S.local(rank) =
        gather_window(M, S.row_begin(gi) + dr, S.row_begin(gi + 1) + dr,
                      S.col_begin(gj) + dc, S.col_begin(gj + 1) + dc);
  });
  // Redistribution cost: every rank streams its tile out and its stripe
  // slices back in; the wire carries each tile once.
  rt.spmd([&](int rank) {
    const std::uint64_t b = M.local(rank).bytes();
    rt.clock(rank).charge(sim::Comp::kSparseOther,
                          rt.model().sparse_stream_time(2 * b) +
                              rt.model().p2p_time(b));
    rt.clock(rank).bytes_sent += b;
    rt.clock(rank).bytes_recv += b;
  });
  return stripes;
}

}  // namespace detail

/// Splits A into `nb` row stripes (stripe r = global rows
/// [split(M, nb, r), split(M, nb, r+1)), re-indexed to stripe-local rows),
/// each redistributed over the full grid — the input layout of the blocked
/// SUMMA (§VI-A). Charges the all-to-all redistribution to kSparseOther.
template <typename T>
[[nodiscard]] std::vector<DistSpMat<T>> split_row_stripes(
    sim::SimRuntime& rt, const DistSpMat<T>& A, int nb,
    util::ThreadPool* pool = nullptr) {
  return detail::split_stripes(rt, A, nb, /*by_rows=*/true, pool);
}

/// Column-stripe analogue of split_row_stripes.
template <typename T>
[[nodiscard]] std::vector<DistSpMat<T>> split_col_stripes(
    sim::SimRuntime& rt, const DistSpMat<T>& B, int nb,
    util::ThreadPool* pool = nullptr) {
  return detail::split_stripes(rt, B, nb, /*by_rows=*/false, pool);
}

/// Horizontally concatenates the tiles of grid row `gi` into one strip:
/// rows = the grid row's local rows, columns = global. The A-side operand
/// assembly of the gather-stages SUMMA fold (dist/summa.hpp).
template <typename T>
[[nodiscard]] SpMat<T> hstack_grid_row(const DistSpMat<T>& A, int gi) {
  return gather_window(A, A.row_begin(gi), A.row_begin(gi + 1), 0, A.ncols());
}

/// Vertically concatenates the tiles of grid column `gj`: rows = global,
/// columns = the grid column's local columns. The B-side operand assembly
/// of the gather-stages SUMMA fold.
template <typename T>
[[nodiscard]] SpMat<T> vstack_grid_col(const DistSpMat<T>& B, int gj) {
  return gather_window(B, 0, B.nrows(), B.col_begin(gj), B.col_begin(gj + 1));
}

/// Reshapes A from the 2D tiling to one full-width row stripe per rank:
/// stripe r = global rows [split(M, p, r), split(M, p, r+1)), stripe-local
/// row ids, global columns — the window of those rows, so exact with no
/// value reassociation. This is the layout the distributed MCL's
/// column-local kernels (inflate/prune/chaos over the transposed flow
/// matrix) need: every flow column whole on one rank. Charges the
/// all-to-all to `charge`.
template <typename T>
[[nodiscard]] std::vector<SpMat<T>> gather_row_stripes(
    sim::SimRuntime& rt, const DistSpMat<T>& A,
    sim::Comp charge = sim::Comp::kSparseOther,
    util::ThreadPool* pool = nullptr) {
  const int p = rt.grid().size();
  const Index n = A.nrows();
  std::vector<SpMat<T>> stripes(static_cast<std::size_t>(p));
  util::for_each_index(pool, stripes.size(), [&](std::size_t rank) {
    const int r = static_cast<int>(rank);
    stripes[rank] = gather_window(A, sim::ProcGrid::split_point(n, p, r),
                                  sim::ProcGrid::split_point(n, p, r + 1), 0,
                                  A.ncols());
  });
  rt.spmd([&](int rank) {
    const std::uint64_t b_out = A.local(rank).bytes();
    const std::uint64_t b_in = stripes[static_cast<std::size_t>(rank)].bytes();
    rt.clock(rank).charge(charge,
                          rt.model().sparse_stream_time(b_out + b_in) +
                              rt.model().p2p_time(b_out));
    rt.clock(rank).bytes_sent += b_out;
    rt.clock(rank).bytes_recv += b_in;
  });
  return stripes;
}

/// Inverse of gather_row_stripes: one stripe per rank (stripe-local rows,
/// global columns) back to the 2D tiling. Exact data movement; charges the
/// all-to-all to `charge`.
template <typename T>
[[nodiscard]] DistSpMat<T> scatter_row_stripes(
    sim::SimRuntime& rt, const std::vector<SpMat<T>>& stripes, Index ncols,
    sim::Comp charge = sim::Comp::kSparseOther,
    util::ThreadPool* pool = nullptr) {
  const sim::ProcGrid& grid = rt.grid();
  const int side = grid.side();
  const int p = grid.size();
  if (stripes.size() != static_cast<std::size_t>(p)) {
    throw std::invalid_argument(
        "scatter_row_stripes: need exactly one stripe per rank");
  }
  Index n = 0;
  for (const auto& s : stripes) n += s.nrows();

  DistSpMat<T> out(grid, n, ncols);
  util::for_each_index(pool, static_cast<std::size_t>(p), [&](std::size_t rank) {
    const int gi = grid.row_of(static_cast<int>(rank));
    const int gj = grid.col_of(static_cast<int>(rank));
    const Index c0 = out.col_begin(gj);
    const Index c1 = out.col_begin(gj + 1);
    const Index base = out.row_begin(gi);
    // The tile's rows come from the side consecutive stripes nested in
    // grid row gi, in stripe order (ascending global rows).
    std::vector<Index> row_ids;
    std::vector<Offset> row_ptr;
    std::vector<Index> cols;
    std::vector<T> vals;
    row_ptr.push_back(0);
    for (int q = gi * side; q < (gi + 1) * side; ++q) {
      const auto& stripe = stripes[static_cast<std::size_t>(q)];
      const Index offset = sim::ProcGrid::split_point(n, p, q) - base;
      for (std::size_t k = 0; k < stripe.n_nonempty_rows(); ++k) {
        const std::size_t row_start = cols.size();
        for (Offset o = stripe.row_begin(k); o < stripe.row_end(k); ++o) {
          if (stripe.col(o) >= c0 && stripe.col(o) < c1) {
            cols.push_back(stripe.col(o) - c0);
            vals.push_back(stripe.val(o));
          }
        }
        if (cols.size() > row_start) {
          row_ids.push_back(stripe.row_id(k) + offset);
          row_ptr.push_back(static_cast<Offset>(cols.size()));
        }
      }
    }
    out.local(static_cast<int>(rank)) = SpMat<T>::from_sorted_parts(
        out.local_nrows(static_cast<int>(rank)),
        out.local_ncols(static_cast<int>(rank)), std::move(row_ids),
        std::move(row_ptr), std::move(cols), std::move(vals));
  });
  rt.spmd([&](int rank) {
    const std::uint64_t b_out = stripes[static_cast<std::size_t>(rank)].bytes();
    const std::uint64_t b_in = out.local(rank).bytes();
    rt.clock(rank).charge(charge,
                          rt.model().sparse_stream_time(b_out + b_in) +
                              rt.model().p2p_time(b_out));
    rt.clock(rank).bytes_sent += b_out;
    rt.clock(rank).bytes_recv += b_in;
  });
  return out;
}

}  // namespace pastis::dist
