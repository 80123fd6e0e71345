// Local sparse matrix in DCSR (doubly-compressed sparse rows) layout.
//
// CombBLAS stores hypersparse local blocks in DCSC [Buluç & Gilbert, IPDPS
// 2008] because a 2D-partitioned matrix on p processes has ~nnz/p nonzeros
// but n/√p rows/columns — a dense pointer array per local block would
// dominate memory (the transposed k-mer matrix here has 244M rows split
// across the grid). We keep a directory of *nonempty* rows only, so local
// storage is Θ(nnz), never Θ(dimension).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sparse/triple.hpp"

namespace pastis::sparse {

template <typename T>
class SpMat {
  static_assert(!std::is_same_v<T, bool>,
                "SpMat<bool> would inherit std::vector<bool>'s proxy "
                "references; use std::uint8_t (see BoolOrAnd)");

 public:
  using value_type = T;

  SpMat() = default;
  SpMat(Index nrows, Index ncols) : nrows_(nrows), ncols_(ncols) {}

  /// Builds from triples, combining duplicate (row, col) entries with
  /// `add(acc, v)`. Triples may arrive in any order.
  template <typename AddOp>
  static SpMat from_triples(Index nrows, Index ncols,
                            std::vector<Triple<T>> triples, AddOp add) {
    SpMat m(nrows, ncols);
    if (triples.empty()) return m;
    sort_triples(triples);
    combine_duplicates(triples, add);
    m.reserve_nnz(triples.size());
    Index current_row = triples.front().row;
    m.row_ids_.push_back(current_row);
    m.row_ptr_.push_back(0);
    for (const auto& t : triples) {
      if (t.row >= nrows || t.col >= ncols) {
        throw std::out_of_range("SpMat::from_triples: index out of bounds");
      }
      if (t.row != current_row) {
        current_row = t.row;
        m.row_ids_.push_back(current_row);
        m.row_ptr_.push_back(static_cast<Offset>(m.col_ids_.size()));
      }
      m.col_ids_.push_back(t.col);
      m.vals_.push_back(t.val);
    }
    m.row_ptr_.push_back(static_cast<Offset>(m.col_ids_.size()));
    return m;
  }

  /// Overload keeping the last duplicate (for payloads without a natural +).
  static SpMat from_triples(Index nrows, Index ncols,
                            std::vector<Triple<T>> triples) {
    return from_triples(nrows, ncols, std::move(triples),
                        [](T& acc, const T& v) { acc = v; });
  }

  /// Trusted direct build from ready-made DCSR arrays — the fast path the
  /// two-phase SpGEMM and the transpose/prune/extract rewrites use to skip
  /// from_triples's sort + dedup when ordering is guaranteed by
  /// construction. The caller promises (checked by asserts in debug
  /// builds): `row_ids` strictly increasing with no empty rows, `row_ptr`
  /// of size row_ids.size()+1 strictly increasing from 0 to col_ids.size(),
  /// and columns strictly increasing within each row.
  static SpMat from_sorted_parts(Index nrows, Index ncols,
                                 std::vector<Index> row_ids,
                                 std::vector<Offset> row_ptr,
                                 std::vector<Index> col_ids,
                                 std::vector<T> vals) {
    SpMat m(nrows, ncols);
    if (col_ids.empty()) return m;  // normalized empty form (as from_triples)
    assert(row_ptr.size() == row_ids.size() + 1);
    assert(row_ptr.front() == 0);
    assert(row_ptr.back() == col_ids.size());
    assert(col_ids.size() == vals.size());
#ifndef NDEBUG
    for (std::size_t k = 0; k < row_ids.size(); ++k) {
      assert(row_ids[k] < nrows);
      assert(row_ptr[k] < row_ptr[k + 1]);  // no empty rows in the directory
      if (k > 0) assert(row_ids[k - 1] < row_ids[k]);
      for (Offset o = row_ptr[k]; o < row_ptr[k + 1]; ++o) {
        assert(col_ids[o] < ncols);
        if (o > row_ptr[k]) assert(col_ids[o - 1] < col_ids[o]);
      }
    }
#endif
    m.row_ids_ = std::move(row_ids);
    m.row_ptr_ = std::move(row_ptr);
    m.col_ids_ = std::move(col_ids);
    m.vals_ = std::move(vals);
    return m;
  }

  [[nodiscard]] Index nrows() const { return nrows_; }
  [[nodiscard]] Index ncols() const { return ncols_; }
  [[nodiscard]] Offset nnz() const { return col_ids_.size(); }
  [[nodiscard]] bool empty() const { return col_ids_.empty(); }
  [[nodiscard]] std::size_t n_nonempty_rows() const { return row_ids_.size(); }

  /// Logical bytes this matrix would occupy on the simulated machine.
  [[nodiscard]] std::uint64_t bytes() const {
    return row_ids_.size() * sizeof(Index) + row_ptr_.size() * sizeof(Offset) +
           col_ids_.size() * sizeof(Index) + vals_.size() * sizeof(T);
  }

  /// Directory access (k-th nonempty row and its nonzero range).
  [[nodiscard]] std::span<const Index> row_ids() const { return row_ids_; }
  [[nodiscard]] Index row_id(std::size_t k) const { return row_ids_[k]; }
  [[nodiscard]] Offset row_begin(std::size_t k) const { return row_ptr_[k]; }
  [[nodiscard]] Offset row_end(std::size_t k) const { return row_ptr_[k + 1]; }
  [[nodiscard]] Index col(Offset o) const { return col_ids_[o]; }
  [[nodiscard]] const T& val(Offset o) const { return vals_[o]; }
  [[nodiscard]] T& val(Offset o) { return vals_[o]; }
  /// Raw pointers into the column/value arrays starting at nonzero `o` —
  /// for callers that process a whole row as contiguous spans (the fused
  /// epilogue takes pointer+length, not an accessor object).
  [[nodiscard]] const Index* col_data(Offset o) const {
    return col_ids_.data() + o;
  }
  [[nodiscard]] const T* val_data(Offset o) const { return vals_.data() + o; }

  /// Moves the four DCSR arrays out into the given receivers (swap: the
  /// receivers' old storage lands in this — now emptied — matrix and is
  /// freed with it). Lets an iterative caller donate a dying matrix's
  /// capacity to the next iteration's builder instead of reallocating.
  /// The matrix is left empty; its shape is unchanged.
  void release_parts(std::vector<Index>& row_ids, std::vector<Offset>& row_ptr,
                     std::vector<Index>& col_ids, std::vector<T>& vals) {
    row_ids.swap(row_ids_);
    row_ptr.swap(row_ptr_);
    col_ids.swap(col_ids_);
    vals.swap(vals_);
    row_ids_.clear();
    row_ptr_.clear();
    col_ids_.clear();
    vals_.clear();
  }

  /// Binary-searches the row directory; returns the directory slot of row
  /// `r` or npos if the row is empty.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t find_row(Index r) const {
    auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), r);
    if (it == row_ids_.end() || *it != r) return npos;
    return static_cast<std::size_t>(it - row_ids_.begin());
  }

  /// Calls fn(row, col, val) for every nonzero in row-major order.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        fn(row_ids_[k], col_ids_[o], vals_[o]);
      }
    }
  }

  /// Exports to triples (row-major sorted).
  [[nodiscard]] std::vector<Triple<T>> to_triples() const {
    std::vector<Triple<T>> out;
    out.reserve(nnz());
    for_each([&](Index i, Index j, const T& v) { out.push_back({i, j, v}); });
    return out;
  }

  /// Transposes with a stable LSD radix sort of the row-major nonzeros by
  /// column: O(nnz) per pass, at most two passes of ≤ 16-bit digits for
  /// 32-bit columns, and independent of the dimension (safe for
  /// hypersparse). Stability keeps the original rows ascending within each
  /// output row, so the sorted entries are the transpose's DCSR arrays with
  /// no comparison sort and no dedup.
  [[nodiscard]] SpMat transposed() const {
    const std::size_t nz = col_ids_.size();
    if (nz == 0) return SpMat(ncols_, nrows_);
    const Index max_col = *std::max_element(col_ids_.begin(), col_ids_.end());
    const int width = std::max(1, static_cast<int>(std::bit_width(max_col)));
    const int passes = (width + 15) / 16;
    const int bits = (width + passes - 1) / passes;
    const std::uint64_t mask = (std::uint64_t(1) << bits) - 1;
    auto digit = [&](Index c, int pass) {
      return static_cast<std::size_t>((std::uint64_t(c) >> (pass * bits)) &
                                      mask);
    };
    // Entries carry (new row = old column, new column = old row, value).
    std::vector<Triple<T>> sorted(nz), spare(passes > 1 ? nz : 0);
    std::vector<Offset> start((std::size_t(1) << bits) + 1);
    for (int pass = 0; pass < passes; ++pass) {
      std::fill(start.begin(), start.end(), 0);
      for (const Index c : col_ids_) ++start[digit(c, pass) + 1];
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      if (pass == 0) {
        for (std::size_t k = 0; k < row_ids_.size(); ++k) {
          for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
            sorted[start[digit(col_ids_[o], 0)]++] = {col_ids_[o], row_ids_[k],
                                                      vals_[o]};
          }
        }
      } else {
        spare.swap(sorted);
        for (const auto& t : spare) sorted[start[digit(t.row, pass)]++] = t;
      }
    }
    std::vector<Index> out_rows;
    std::vector<Offset> ptr;
    std::vector<Index> out_cols(nz);
    std::vector<T> out_vals(nz);
    for (std::size_t o = 0; o < nz; ++o) {
      if (o == 0 || sorted[o].row != sorted[o - 1].row) {
        out_rows.push_back(sorted[o].row);
        ptr.push_back(static_cast<Offset>(o));
      }
      out_cols[o] = sorted[o].col;
      out_vals[o] = sorted[o].val;
    }
    ptr.push_back(static_cast<Offset>(nz));
    return from_sorted_parts(ncols_, nrows_, std::move(out_rows),
                             std::move(ptr), std::move(out_cols),
                             std::move(out_vals));
  }

  /// Keeps nonzeros for which pred(row, col, val) holds. A row-major scan
  /// preserves sorted order, so the survivors build directly.
  template <typename Pred>
  [[nodiscard]] SpMat pruned(Pred pred) const {
    std::vector<Index> out_rows;
    std::vector<Offset> ptr;
    std::vector<Index> out_cols;
    std::vector<T> out_vals;
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      const std::size_t row_start = out_cols.size();
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        if (pred(row_ids_[k], col_ids_[o], vals_[o])) {
          out_cols.push_back(col_ids_[o]);
          out_vals.push_back(vals_[o]);
        }
      }
      if (out_cols.size() > row_start) {
        out_rows.push_back(row_ids_[k]);
        ptr.push_back(static_cast<Offset>(row_start));
      }
    }
    ptr.push_back(static_cast<Offset>(out_cols.size()));
    return from_sorted_parts(nrows_, ncols_, std::move(out_rows),
                             std::move(ptr), std::move(out_cols),
                             std::move(out_vals));
  }

  /// Extracts the sub-matrix [r0, r1) × [c0, c1), re-indexed to local
  /// coordinates (direct build, same ordering argument as pruned). Used to
  /// split stripes for the blocked SUMMA.
  [[nodiscard]] SpMat extract(Index r0, Index r1, Index c0, Index c1) const {
    assert(r0 <= r1 && r1 <= nrows_ && c0 <= c1 && c1 <= ncols_);
    std::vector<Index> out_rows;
    std::vector<Offset> ptr;
    std::vector<Index> out_cols;
    std::vector<T> out_vals;
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      const Index i = row_ids_[k];
      if (i < r0 || i >= r1) continue;
      const std::size_t row_start = out_cols.size();
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        if (col_ids_[o] >= c0 && col_ids_[o] < c1) {
          out_cols.push_back(col_ids_[o] - c0);
          out_vals.push_back(vals_[o]);
        }
      }
      if (out_cols.size() > row_start) {
        out_rows.push_back(i - r0);
        ptr.push_back(static_cast<Offset>(row_start));
      }
    }
    ptr.push_back(static_cast<Offset>(out_cols.size()));
    return from_sorted_parts(r1 - r0, c1 - c0, std::move(out_rows),
                             std::move(ptr), std::move(out_cols),
                             std::move(out_vals));
  }

  /// Structural + value equality (same shape, same nonzeros).
  friend bool operator==(const SpMat& a, const SpMat& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.row_ids_ == b.row_ids_ && a.row_ptr_ == b.row_ptr_ &&
           a.col_ids_ == b.col_ids_ && a.vals_ == b.vals_;
  }

 private:
  void reserve_nnz(std::size_t nnz) {
    col_ids_.reserve(nnz);
    vals_.reserve(nnz);
  }

  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<Index> row_ids_;   // sorted ids of nonempty rows
  std::vector<Offset> row_ptr_;  // size row_ids_+1; offsets into col/val
  std::vector<Index> col_ids_;   // column of each nonzero (row-major)
  std::vector<T> vals_;          // payloads
};

}  // namespace pastis::sparse
