// Sequence-by-k-mer matrix A, assembled tile by tile. One pool task per
// row extracts the row's exact and substitute k-mers, sorts them by code,
// and merges duplicate codes to the smallest position. Then one task per
// tile copies the tile's code range of every row in its grid row into
// sorted DCSR, with the directory taken from prefix sums of the segment
// lengths.
// No global triple list and no whole-matrix sort: the tiles equal what
// bucketing the concatenated rows' triples to their owner tiles and
// building each with SpMat::from_triples and keep_min_pos gives.
#include "core/kmer_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>

#include "core/stages.hpp"
#include "kmer/nearest.hpp"

namespace pastis::core {

dist::DistSpMat<KmerPos> build_kmer_matrix(sim::SimRuntime& rt,
                                           const DistSeqStore& store,
                                           const PastisConfig& cfg,
                                           KmerMatrixInfo* info,
                                           util::ThreadPool* pool) {
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  if (codec.space() > std::uint64_t(sparse::Index(-1))) {
    throw std::invalid_argument(
        "build_kmer_matrix: k-mer space exceeds 32-bit column indices");
  }
  const auto ncols = static_cast<sparse::Index>(codec.space());
  const sparse::Index nrows = store.size();

  const align::Scoring scoring = cfg.make_scoring();
  const kmer::NeighborGenerator neighbors(alphabet, codec, scoring,
                                          cfg.subs_max_loss);

  // Per row, in parallel: extract, then sort by code and merge duplicate
  // codes keeping the smallest position (keep_min_pos, order-independent).
  const sim::ProcGrid& grid = rt.grid();
  dist::DistSpMat<KmerPos> A(grid, nrows, ncols);
  std::vector<std::vector<sparse::Triple<KmerPos>>> rows(nrows);
  std::atomic<std::uint64_t> exact{0}, subs{0};
  util::for_each_index(pool, nrows, [&](std::size_t i) {
    auto& row = rows[i];
    const auto id = static_cast<sparse::Index>(i);
    const auto [n_exact, n_subs] = extract_sequence_kmers(
        store.seq(id), id, alphabet, codec, neighbors, cfg.subs_kmers, row);
    exact.fetch_add(n_exact, std::memory_order_relaxed);
    subs.fetch_add(n_subs, std::memory_order_relaxed);
    sparse::sort_triples(row);
    sparse::combine_duplicates(row, keep_min_pos);
  });

  // Then one tile per pool task, straight from its grid row's sorted rows:
  // a row's share of the tile is its code range [c0, c1), and prefix sums
  // of those segment lengths give the tile's directory.
  util::for_each_index(pool, static_cast<std::size_t>(grid.size()),
                       [&](std::size_t rank) {
    const int r = static_cast<int>(rank);
    const Index r0 = A.row_begin(grid.row_of(r));
    const Index r1 = A.row_begin(grid.row_of(r) + 1);
    const Index c0 = A.col_begin(grid.col_of(r));
    const Index c1 = A.col_begin(grid.col_of(r) + 1);
    auto segment = [&](Index i) {
      const auto& row = rows[i];
      auto by_col = [](const sparse::Triple<KmerPos>& t, Index c) {
        return t.col < c;
      };
      return std::span(std::lower_bound(row.begin(), row.end(), c0, by_col),
                       std::lower_bound(row.begin(), row.end(), c1, by_col));
    };
    std::vector<Index> row_ids;
    std::vector<sparse::Offset> row_ptr{0};
    for (Index i = r0; i < r1; ++i) {
      if (const auto seg = segment(i); !seg.empty()) {
        row_ids.push_back(i - r0);
        row_ptr.push_back(row_ptr.back() + seg.size());
      }
    }
    std::vector<Index> cols;
    std::vector<KmerPos> vals;
    cols.reserve(row_ptr.back());
    vals.reserve(row_ptr.back());
    for (const Index local : row_ids) {
      for (const auto& t : segment(r0 + local)) {
        cols.push_back(t.col - c0);
        vals.push_back(t.val);
      }
    }
    A.local(r) = sparse::SpMat<KmerPos>::from_sorted_parts(
        A.local_nrows(r), A.local_ncols(r), std::move(row_ids),
        std::move(row_ptr), std::move(cols), std::move(vals));
  });

  // Cost: each rank streams its owned sequences during extraction and its
  // local block during assembly.
  rt.spmd([&](int rank) {
    const Index own_begin =
        sim::ProcGrid::split_point(store.size(), rt.nprocs(), rank);
    const Index own_end =
        sim::ProcGrid::split_point(store.size(), rt.nprocs(), rank + 1);
    const std::uint64_t seq_bytes = store.range_bytes(own_begin, own_end);
    const std::uint64_t local_bytes = A.local(rank).bytes();
    rt.clock(rank).charge(
        sim::Comp::kSparseOther,
        rt.model().sparse_stream_time(seq_bytes + 2 * local_bytes) +
            rt.model().p2p_time(local_bytes));
    rt.clock(rank).bytes_sent += local_bytes;
    rt.clock(rank).bytes_recv += local_bytes;
  });

  if (info != nullptr) {
    info->nnz = A.nnz();
    info->exact_kmers = exact.load();
    info->substitute_kmers = subs.load();
    info->cols = ncols;
  }
  return A;
}

}  // namespace pastis::core
