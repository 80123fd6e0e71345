// Serial hash-accumulator SpGEMM: the test suite's and the SpGEMM
// benches' cross-check oracle for sparse::spgemm_hash2p. It walks A's rows
// one at a time, probes B's rows by binary search and drains each row's
// accumulator through a triple list, so it shares no scheduling, directory
// or direct-assembly code with the production kernel it checks.
#pragma once

#include <stdexcept>
#include <vector>

#include "sparse/spgemm.hpp"

namespace pastis::sparse {

/// C = A ·_SR B with a serial hash accumulator. A is M×K, B is K×N; C is
/// M×N. Kept as the primary cross-check oracle for the two-phase kernel.
template <SemiringLike SR>
[[nodiscard]] SpMat<typename SR::value_type> spgemm_hash(
    const SpMat<typename SR::left_type>& A,
    const SpMat<typename SR::right_type>& B, SpGemmStats* stats = nullptr) {
  using V = typename SR::value_type;
  if (A.ncols() != B.nrows()) {
    throw std::invalid_argument("spgemm: inner dimensions disagree");
  }

  std::vector<Triple<V>> out;  // row-major by construction
  detail::HashAccumulator<V> acc;
  std::vector<Index> cols;  // per-row drain buffers, reused across rows
  std::vector<V> vals;

  for (std::size_t ka = 0; ka < A.n_nonempty_rows(); ++ka) {
    const Index i = A.row_id(ka);
    // Upper bound on the row's intermediate products, for table sizing.
    std::size_t expected = 0;
    for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
      const std::size_t kb = B.find_row(A.col(o));
      if (kb != SpMat<typename SR::right_type>::npos) {
        expected += static_cast<std::size_t>(B.row_end(kb) - B.row_begin(kb));
      }
    }
    if (expected == 0) continue;
    acc.begin_row(expected);

    std::uint64_t row_products = 0;
    for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
      const Index k = A.col(o);
      const std::size_t kb = B.find_row(k);
      if (kb == SpMat<typename SR::right_type>::npos) continue;
      const auto& aval = A.val(o);
      for (Offset ob = B.row_begin(kb); ob < B.row_end(kb); ++ob) {
        acc.template add<SR>(B.col(ob), SR::multiply(aval, B.val(ob)));
        ++row_products;
      }
    }

    // Drain the accumulator into triples for this row.
    cols.resize(acc.row_size());
    vals.resize(acc.row_size());
    acc.extract_sorted_to(cols.data(), vals.data());
    for (std::size_t t = 0; t < cols.size(); ++t) {
      out.push_back({i, cols[t], vals[t]});
    }
    if (stats != nullptr) stats->products += row_products;
  }
  if (stats != nullptr) {
    stats->out_nnz += out.size();
    ++stats->calls;
  }
  // Triples are already (row, col)-sorted and unique; build directly.
  return SpMat<V>::from_triples(A.nrows(), B.ncols(), std::move(out));
}

}  // namespace pastis::sparse
