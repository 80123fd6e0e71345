// Distributed matrix and SUMMA tests: the distributed algorithms must be
// semiring-exact against their serial counterparts on any grid.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/common_kmers.hpp"
#include "core/kmer_matrix.hpp"
#include "core/stages.hpp"
#include "dist/distmat.hpp"
#include "dist/summa.hpp"
#include "kmer/nearest.hpp"
#include "oracle/spgemm_hash.hpp"
#include "util/rng.hpp"

namespace pd = pastis::dist;
namespace ps = pastis::sparse;
namespace psim = pastis::sim;

using IntMat = ps::SpMat<int>;

namespace {

/// The global-triple route the setup stage used before it went tile to
/// tile: every triple re-indexed to its owner tile, each tile rebuilt with
/// from_triples (duplicates combined with `combine`, by default the last
/// one kept). It builds the inputs of these tests and is the reference the
/// tile-direct transpose, stripe splits and k-mer matrix are compared with.
template <typename T, typename CombineOp>
pd::DistSpMat<T> from_global_triples(const psim::ProcGrid& grid,
                                     ps::Index nrows, ps::Index ncols,
                                     const std::vector<ps::Triple<T>>& triples,
                                     CombineOp combine) {
  pd::DistSpMat<T> m(grid, nrows, ncols);
  std::vector<std::vector<ps::Triple<T>>> buckets(
      static_cast<std::size_t>(grid.size()));
  for (const auto& t : triples) {
    const int gi = psim::ProcGrid::part_of(t.row, nrows, grid.side());
    const int gj = psim::ProcGrid::part_of(t.col, ncols, grid.side());
    buckets[static_cast<std::size_t>(grid.rank_of(gi, gj))].push_back(
        {t.row - m.row_begin(gi), t.col - m.col_begin(gj), t.val});
  }
  for (int r = 0; r < grid.size(); ++r) {
    m.local(r) = ps::SpMat<T>::from_triples(
        m.local_nrows(r), m.local_ncols(r),
        std::move(buckets[static_cast<std::size_t>(r)]), combine);
  }
  return m;
}

template <typename T>
pd::DistSpMat<T> from_global_triples(const psim::ProcGrid& grid,
                                     ps::Index nrows, ps::Index ncols,
                                     const std::vector<ps::Triple<T>>& triples) {
  return from_global_triples(grid, nrows, ncols, triples,
                             [](T& acc, const T& v) { acc = v; });
}

/// Every tile exported back to global coordinates (rank-major order).
template <typename T>
std::vector<ps::Triple<T>> to_global_triples(const pd::DistSpMat<T>& D) {
  std::vector<ps::Triple<T>> out;
  for (int r = 0; r < D.grid().size(); ++r) {
    const ps::Index r0 = D.row_begin(D.grid().row_of(r));
    const ps::Index c0 = D.col_begin(D.grid().col_of(r));
    D.local(r).for_each([&](ps::Index i, ps::Index j, const T& v) {
      out.push_back({r0 + i, c0 + j, v});
    });
  }
  return out;
}

std::vector<ps::Triple<int>> random_triples(ps::Index nrows, ps::Index ncols,
                                            double density,
                                            std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  std::vector<ps::Triple<int>> t;
  for (ps::Index i = 0; i < nrows; ++i) {
    for (ps::Index j = 0; j < ncols; ++j) {
      if (rng.chance(density)) {
        t.push_back({i, j, static_cast<int>(rng.below(7)) + 1});
      }
    }
  }
  return t;
}

std::map<std::pair<ps::Index, ps::Index>, int> to_map(
    const std::vector<ps::Triple<int>>& t) {
  std::map<std::pair<ps::Index, ps::Index>, int> m;
  for (const auto& x : t) m[{x.row, x.col}] = x.val;
  return m;
}

}  // namespace

TEST(DistSpMat, DistributeGatherRoundTrip) {
  const auto triples = random_triples(50, 70, 0.1, 1);
  const psim::ProcGrid grid(9);
  auto D = from_global_triples<int>(grid, 50, 70, triples);
  EXPECT_EQ(D.nnz(), triples.size());
  EXPECT_EQ(to_map(to_global_triples(D)), to_map(triples));
}

TEST(DistSpMat, LocalDimsTileTheMatrix) {
  const psim::ProcGrid grid(16);
  pd::DistSpMat<int> D(grid, 103, 57);
  ps::Index row_total = 0, col_total = 0;
  for (int gi = 0; gi < grid.side(); ++gi) {
    row_total += D.local_nrows(grid.rank_of(gi, 0));
    col_total += D.local_ncols(grid.rank_of(0, gi));
  }
  EXPECT_EQ(row_total, 103u);
  EXPECT_EQ(col_total, 57u);
}

TEST(DistSpMat, TransposeMatchesSerial) {
  const auto triples = random_triples(40, 60, 0.15, 3);
  const psim::ProcGrid grid(4);
  auto D = from_global_triples<int>(grid, 40, 60, triples);
  auto Dt = D.transposed();
  EXPECT_EQ(Dt.nrows(), 60u);
  EXPECT_EQ(Dt.ncols(), 40u);
  std::vector<ps::Triple<int>> expect;
  for (const auto& t : triples) expect.push_back({t.col, t.row, t.val});
  EXPECT_EQ(to_map(to_global_triples(Dt)), to_map(expect));
}

struct SummaCase {
  int p;
  ps::Index m, k, n;
  double da, db;
};

class SummaSweep : public ::testing::TestWithParam<SummaCase> {};

TEST_P(SummaSweep, MatchesSerialSpGemm) {
  const auto c = GetParam();
  const auto ta = random_triples(c.m, c.k, c.da, 11);
  const auto tb = random_triples(c.k, c.n, c.db, 12);

  psim::SimRuntime rt(c.p, psim::MachineModel{});
  auto A = from_global_triples<int>(rt.grid(), c.m, c.k, ta);
  auto B = from_global_triples<int>(rt.grid(), c.k, c.n, tb);
  ps::SpGemmStats dist_stats;
  auto C = pd::summa<ps::PlusTimes<int>>(rt, A, B, {}, &dist_stats);

  auto As = IntMat::from_triples(c.m, c.k, ta);
  auto Bs = IntMat::from_triples(c.k, c.n, tb);
  ps::SpGemmStats serial_stats;
  auto Cs = ps::spgemm_hash<ps::PlusTimes<int>>(As, Bs, &serial_stats);

  EXPECT_EQ(to_map(to_global_triples(C)), to_map(Cs.to_triples()));
  EXPECT_EQ(dist_stats.products, serial_stats.products);
  EXPECT_EQ(C.nnz(), Cs.nnz());

  // Communication/computation must have been charged.
  double charged = 0.0;
  for (int r = 0; r < c.p; ++r) {
    charged += rt.clock(r).get(psim::Comp::kSpGemm);
  }
  if (c.p > 1 && !ta.empty()) {
    EXPECT_GT(charged, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndShapes, SummaSweep,
    ::testing::Values(SummaCase{1, 30, 30, 30, 0.2, 0.2},
                      SummaCase{4, 30, 30, 30, 0.2, 0.2},
                      SummaCase{9, 50, 40, 30, 0.15, 0.15},
                      SummaCase{16, 64, 64, 64, 0.1, 0.1},
                      SummaCase{25, 55, 71, 33, 0.12, 0.08},
                      SummaCase{16, 10, 200, 10, 0.05, 0.05},
                      SummaCase{9, 33, 33, 33, 0.0, 0.3}));  // empty A

TEST(Summa, DimensionMismatchThrows) {
  psim::SimRuntime rt(4, psim::MachineModel{});
  pd::DistSpMat<int> A(rt.grid(), 10, 20);
  pd::DistSpMat<int> B(rt.grid(), 30, 10);
  EXPECT_THROW(pd::summa<ps::PlusTimes<int>>(rt, A, B), std::invalid_argument);
}

TEST(Stripes, RowStripesReassembleToOriginal) {
  const auto triples = random_triples(45, 61, 0.12, 31);
  psim::SimRuntime rt(9, psim::MachineModel{});
  auto A = from_global_triples<int>(rt.grid(), 45, 61, triples);
  for (int nb : {1, 2, 3, 5}) {
    auto stripes = pd::split_row_stripes(rt, A, nb);
    ASSERT_EQ(stripes.size(), static_cast<std::size_t>(nb));
    std::vector<ps::Triple<int>> merged;
    ps::Index offset = 0;
    for (const auto& s : stripes) {
      for (const auto& t : to_global_triples(s)) {
        merged.push_back({t.row + offset, t.col, t.val});
      }
      offset += s.nrows();
    }
    EXPECT_EQ(offset, 45u);
    EXPECT_EQ(to_map(merged), to_map(triples));
  }
}

TEST(Stripes, ColStripesReassembleToOriginal) {
  const auto triples = random_triples(45, 61, 0.12, 37);
  psim::SimRuntime rt(4, psim::MachineModel{});
  auto B = from_global_triples<int>(rt.grid(), 45, 61, triples);
  auto stripes = pd::split_col_stripes(rt, B, 4);
  std::vector<ps::Triple<int>> merged;
  ps::Index offset = 0;
  for (const auto& s : stripes) {
    for (const auto& t : to_global_triples(s)) {
      merged.push_back({t.row, t.col + offset, t.val});
    }
    offset += s.ncols();
  }
  EXPECT_EQ(offset, 61u);
  EXPECT_EQ(to_map(merged), to_map(triples));
}

struct BlockedCase {
  int p, br, bc;
};

class BlockedSummaSweep : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(BlockedSummaSweep, BlockProductsTileTheFullProduct) {
  // Blocked SUMMA invariant (§VI-A): computing C block-by-block from
  // redistributed stripes gives exactly the unblocked product.
  const auto c = GetParam();
  const ps::Index n = 52;
  const auto ta = random_triples(n, 77, 0.1, 41);
  const auto tb = random_triples(77, n, 0.1, 42);

  psim::SimRuntime rt(c.p, psim::MachineModel{});
  auto A = from_global_triples<int>(rt.grid(), n, 77, ta);
  auto B = from_global_triples<int>(rt.grid(), 77, n, tb);

  auto full = pd::summa<ps::PlusTimes<int>>(rt, A, B);
  auto full_map = to_map(to_global_triples(full));

  auto sa = pd::split_row_stripes(rt, A, c.br);
  auto sb = pd::split_col_stripes(rt, B, c.bc);
  std::map<std::pair<ps::Index, ps::Index>, int> blocked_map;
  for (int r = 0; r < c.br; ++r) {
    const ps::Index row0 = psim::ProcGrid::split_point(n, c.br, r);
    for (int cc = 0; cc < c.bc; ++cc) {
      const ps::Index col0 = psim::ProcGrid::split_point(n, c.bc, cc);
      auto Crc = pd::summa<ps::PlusTimes<int>>(
          rt, sa[static_cast<std::size_t>(r)], sb[static_cast<std::size_t>(cc)]);
      for (const auto& t : to_global_triples(Crc)) {
        blocked_map[{t.row + row0, t.col + col0}] = t.val;
      }
    }
  }
  EXPECT_EQ(blocked_map, full_map);
}

INSTANTIATE_TEST_SUITE_P(Blockings, BlockedSummaSweep,
                         ::testing::Values(BlockedCase{1, 2, 2},
                                           BlockedCase{4, 1, 1},
                                           BlockedCase{4, 3, 4},
                                           BlockedCase{9, 2, 5},
                                           BlockedCase{16, 4, 4},
                                           BlockedCase{9, 8, 3}));

TEST(Summa, OverlapSemiringSeedsAreOrderIndependent) {
  // The CommonKmers add keeps min/max seed pairs, so any stage/block order
  // produces identical payloads. Multiply the same k-mer-like matrix on two
  // different grids and compare payload-by-payload.
  using pastis::core::KmerPos;
  using pastis::core::OverlapSemiring;
  pastis::util::Xoshiro256 rng(51);
  std::vector<ps::Triple<KmerPos>> ta;
  const ps::Index n = 30, kdim = 500;
  for (ps::Index i = 0; i < n; ++i) {
    for (int t = 0; t < 40; ++t) {
      ta.push_back({i, static_cast<ps::Index>(rng.below(kdim)),
                    KmerPos{static_cast<std::uint32_t>(rng.below(200))}});
    }
  }
  auto keep_min = [](KmerPos& a, const KmerPos& b) {
    if (b.pos < a.pos) a = b;
  };

  auto run_on = [&](int p) {
    psim::SimRuntime rt(p, psim::MachineModel{});
    auto A = from_global_triples<KmerPos>(rt.grid(), n, kdim,
                                                         ta, keep_min);
    auto B = A.transposed();
    auto C = pd::summa<OverlapSemiring>(rt, A, B);
    auto triples = to_global_triples(C);
    ps::sort_triples(triples);
    return triples;
  };

  const auto c1 = run_on(1);
  const auto c9 = run_on(9);
  ASSERT_EQ(c1.size(), c9.size());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].row, c9[i].row);
    EXPECT_EQ(c1[i].col, c9[i].col);
    EXPECT_EQ(c1[i].val.count, c9[i].val.count);
    EXPECT_TRUE(c1[i].val.first == c9[i].val.first);
    EXPECT_TRUE(c1[i].val.last == c9[i].val.last);
  }
}

// ---- thread-pool sweeps for the reshape primitives -------------------------

TEST(DistSpMat, TransposedIsPoolInvariant) {
  // transposed() routes through from_global_triples, whose per-tile builds
  // may fan out over a pool — exercised directly here (1/2/8 workers plus
  // the serial path), not just through the SUMMA suites.
  const auto triples = random_triples(83, 59, 0.13, 101);
  const psim::ProcGrid grid(9);
  auto D = from_global_triples<int>(grid, 83, 59, triples);
  const auto serial = D.transposed();
  for (std::size_t threads : {1u, 2u, 8u}) {
    pastis::util::ThreadPool pool(threads);
    const auto pooled = D.transposed(&pool);
    ASSERT_EQ(pooled.nnz(), serial.nnz()) << "threads=" << threads;
    for (int r = 0; r < grid.size(); ++r) {
      EXPECT_TRUE(pooled.local(r) == serial.local(r))
          << "threads=" << threads << " rank=" << r;
    }
  }
}

TEST(Stripes, RowStripeSplitIsPoolInvariant) {
  const auto triples = random_triples(91, 47, 0.12, 103);
  for (std::size_t threads : {1u, 2u, 8u}) {
    pastis::util::ThreadPool pool(threads);
    psim::SimRuntime rt(9, psim::MachineModel{}, &pool);
    auto A = from_global_triples<int>(rt.grid(), 91, 47,
                                                     triples);
    psim::SimRuntime rt_serial(9, psim::MachineModel{});
    const auto serial = pd::split_row_stripes(rt_serial, A, 4);
    const auto pooled = pd::split_row_stripes(rt, A, 4, &pool);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      for (int r = 0; r < rt.grid().size(); ++r) {
        EXPECT_TRUE(pooled[s].local(r) == serial[s].local(r))
            << "threads=" << threads << " stripe=" << s << " rank=" << r;
      }
    }
  }
}

// ---- row-stripe reshapes (the distributed MCL layout) ----------------------

TEST(Stripes, GatherScatterRowStripesRoundTrip) {
  const auto triples = random_triples(77, 77, 0.1, 107);
  for (int p : {1, 4, 9}) {
    psim::SimRuntime rt(p, psim::MachineModel{});
    auto A = from_global_triples<int>(rt.grid(), 77, 77,
                                                     triples);
    const auto stripes = pd::gather_row_stripes(rt, A);
    ASSERT_EQ(stripes.size(), static_cast<std::size_t>(p));
    // Stripes tile the rows; entries carry global columns.
    ps::Index rows = 0;
    std::vector<ps::Triple<int>> merged;
    for (const auto& s : stripes) {
      for (const auto& t : s.to_triples()) {
        merged.push_back({t.row + rows, t.col, t.val});
      }
      rows += s.nrows();
    }
    EXPECT_EQ(rows, 77u);
    EXPECT_EQ(to_map(merged), to_map(triples));

    const auto back = pd::scatter_row_stripes(rt, stripes, 77);
    for (int r = 0; r < p; ++r) {
      EXPECT_TRUE(back.local(r) == A.local(r)) << "p=" << p << " rank=" << r;
    }
    // The reshape's wire time was charged.
    if (p > 1) {
      EXPECT_GT(rt.sum_over_ranks(psim::Comp::kSparseOther), 0.0);
    }
  }
}

TEST(Stripes, HstackVstackReassembleTiles) {
  const auto triples = random_triples(40, 52, 0.15, 109);
  const psim::ProcGrid grid(9);
  auto A = from_global_triples<int>(grid, 40, 52, triples);
  std::vector<ps::Triple<int>> via_rows;
  for (int gi = 0; gi < grid.side(); ++gi) {
    const auto strip = pd::hstack_grid_row(A, gi);
    EXPECT_EQ(strip.ncols(), 52u);
    const ps::Index r0 = A.row_begin(gi);
    for (const auto& t : strip.to_triples()) {
      via_rows.push_back({t.row + r0, t.col, t.val});
    }
  }
  EXPECT_EQ(to_map(via_rows), to_map(triples));

  std::vector<ps::Triple<int>> via_cols;
  for (int gj = 0; gj < grid.side(); ++gj) {
    const auto strip = pd::vstack_grid_col(A, gj);
    EXPECT_EQ(strip.nrows(), 40u);
    const ps::Index c0 = A.col_begin(gj);
    for (const auto& t : strip.to_triples()) {
      via_cols.push_back({t.row, t.col + c0, t.val});
    }
  }
  EXPECT_EQ(to_map(via_cols), to_map(triples));
}

// ---- gather-stages SUMMA (the bitwise-exact float fold) --------------------

TEST(Summa, GatherStagesAgreesWithStagedMergeOnInts) {
  const auto ta = random_triples(45, 45, 0.2, 111);
  const auto tb = random_triples(45, 45, 0.2, 112);
  psim::SimRuntime rt(9, psim::MachineModel{});
  auto A = from_global_triples<int>(rt.grid(), 45, 45, ta);
  auto B = from_global_triples<int>(rt.grid(), 45, 45, tb);
  pd::SummaOptions staged, gathered;
  gathered.gather_stages = true;
  ps::SpGemmStats s1, s2;
  auto Cs = pd::summa<ps::PlusTimes<int>>(rt, A, B, staged, &s1);
  auto Cg = pd::summa<ps::PlusTimes<int>>(rt, A, B, gathered, &s2);
  EXPECT_EQ(to_map(to_global_triples(Cs)), to_map(to_global_triples(Cg)));
  EXPECT_EQ(s1.products, s2.products);
}

TEST(Summa, GatherStagesIsBitwiseEqualToSerialFloatKernel) {
  // Float addition is order-sensitive: the staged merge regroups the
  // per-stage partial sums, but the gather-stages fold accumulates every
  // C(i,j) in ascending-k order exactly like the serial kernel — bitwise,
  // on any grid. This is what the distributed MCL's determinism rests on.
  pastis::util::Xoshiro256 rng(113);
  std::vector<ps::Triple<float>> tf;
  for (ps::Index i = 0; i < 60; ++i) {
    for (ps::Index j = 0; j < 60; ++j) {
      if (rng.chance(0.2)) {
        tf.push_back({i, j, 0.01f + static_cast<float>(rng.uniform())});
      }
    }
  }
  auto As = ps::SpMat<float>::from_triples(60, 60, tf);
  const auto serial = ps::spgemm_hash2p<ps::PlusTimes<float>>(As, As);

  for (int p : {4, 9}) {
    psim::SimRuntime rt(p, psim::MachineModel{});
    auto A = from_global_triples<float>(rt.grid(), 60, 60, tf);
    pd::SummaOptions opt;
    opt.gather_stages = true;
    auto C = pd::summa<ps::PlusTimes<float>>(rt, A, A, opt);
    auto triples = to_global_triples(C);
    ps::sort_triples(triples);
    const auto expect = serial.to_triples();
    ASSERT_EQ(triples.size(), expect.size()) << "p=" << p;
    for (std::size_t i = 0; i < triples.size(); ++i) {
      EXPECT_EQ(triples[i].row, expect[i].row);
      EXPECT_EQ(triples[i].col, expect[i].col);
      // Bitwise float equality, not approximate.
      EXPECT_EQ(triples[i].val, expect[i].val) << "p=" << p << " i=" << i;
    }
  }
}

// ---- tile-direct setup reshapes against the triple route -------------------

namespace {

/// The global-triple routes the setup stage took before it went tile to
/// tile: export every tile as global triples, re-key, bucket to the owner
/// tiles and rebuild each with from_triples. Tile-for-tile equality with
/// these is equality with the old behaviour.
template <typename T>
pd::DistSpMat<T> transpose_oracle(const pd::DistSpMat<T>& D) {
  auto t = to_global_triples(D);
  for (auto& x : t) std::swap(x.row, x.col);
  return from_global_triples<T>(D.grid(), D.ncols(), D.nrows(),
                                               t);
}

template <typename T>
std::vector<pd::DistSpMat<T>> stripes_oracle(const psim::ProcGrid& grid,
                                             const pd::DistSpMat<T>& M, int nb,
                                             bool by_rows) {
  const ps::Index n = by_rows ? M.nrows() : M.ncols();
  std::vector<std::vector<ps::Triple<T>>> per(static_cast<std::size_t>(nb));
  for (const auto& t : to_global_triples(M)) {
    const int s = psim::ProcGrid::part_of(by_rows ? t.row : t.col, n, nb);
    const ps::Index base = psim::ProcGrid::split_point(n, nb, s);
    per[static_cast<std::size_t>(s)].push_back(
        by_rows ? ps::Triple<T>{t.row - base, t.col, t.val}
                : ps::Triple<T>{t.row, t.col - base, t.val});
  }
  std::vector<pd::DistSpMat<T>> out;
  for (int s = 0; s < nb; ++s) {
    const ps::Index extent = psim::ProcGrid::split_point(n, nb, s + 1) -
                             psim::ProcGrid::split_point(n, nb, s);
    out.push_back(from_global_triples<T>(
        grid, by_rows ? extent : M.nrows(), by_rows ? M.ncols() : extent,
        per[static_cast<std::size_t>(s)]));
  }
  return out;
}

template <typename T>
void expect_same_tiles(const pd::DistSpMat<T>& got,
                       const pd::DistSpMat<T>& want, const std::string& what) {
  ASSERT_EQ(got.nrows(), want.nrows()) << what;
  ASSERT_EQ(got.ncols(), want.ncols()) << what;
  ASSERT_EQ(got.grid().size(), want.grid().size()) << what;
  for (int r = 0; r < want.grid().size(); ++r) {
    EXPECT_TRUE(got.local(r) == want.local(r)) << what << " rank=" << r;
  }
}

}  // namespace

TEST(SetupOracle, TransposeAndStripesMatchTripleRoute) {
  struct Case {
    const char* name;
    ps::Index rows, cols;
    std::vector<ps::Triple<int>> triples;
  };
  std::vector<Case> cases;
  // Fewer rows than stripes x grid rows: many stripe tiles come out empty.
  cases.push_back({"tiny", 7, 11, random_triples(7, 11, 0.3, 201)});
  cases.push_back({"random", 38, 53, random_triples(38, 53, 0.12, 203)});
  cases.push_back({"empty", 13, 17, {}});
  // Hypersparse: the full 32-bit column space with nonzeros at its ends.
  const ps::Index wide = 4294967295u;
  cases.push_back({"hypersparse", 20, wide,
                   {{0, 0, 1}, {0, wide - 1, 2}, {3, 2147483648u, 3},
                    {3, 2147483649u, 4}, {11, 1431655765u, 5},
                    {19, wide - 1, 6}, {19, 7, 7}}});

  pastis::util::ThreadPool pool1(1), pool3(3);
  for (const auto& c : cases) {
    for (int p : {1, 4, 9}) {
      for (pastis::util::ThreadPool* pool :
           {static_cast<pastis::util::ThreadPool*>(nullptr), &pool1, &pool3}) {
        psim::SimRuntime rt(p, psim::MachineModel{});
        const std::string tag = std::string(c.name) + " p=" + std::to_string(p) +
                                " pool=" +
                                std::to_string(pool ? pool->size() : 0);
        const auto D = from_global_triples<int>(
            rt.grid(), c.rows, c.cols, c.triples);
        const auto Dt = D.transposed(pool);
        expect_same_tiles(Dt, transpose_oracle(D), tag + " transpose");
        for (int nb : {1, 2, 3, 5}) {
          // Row stripes of A and column stripes of Aᵀ (the pipeline's
          // operands), plus the other orientation of each.
          for (const auto* M : {&D, &Dt}) {
            const auto rs = pd::split_row_stripes(rt, *M, nb, pool);
            const auto rs_ref = stripes_oracle(rt.grid(), *M, nb, true);
            const auto cs = pd::split_col_stripes(rt, *M, nb, pool);
            const auto cs_ref = stripes_oracle(rt.grid(), *M, nb, false);
            ASSERT_EQ(rs.size(), static_cast<std::size_t>(nb));
            ASSERT_EQ(cs.size(), static_cast<std::size_t>(nb));
            for (int s = 0; s < nb; ++s) {
              const std::string at = tag + " nb=" + std::to_string(nb) +
                                     " stripe=" + std::to_string(s) +
                                     (M == &D ? " (A)" : " (At)");
              expect_same_tiles(rs[static_cast<std::size_t>(s)],
                                rs_ref[static_cast<std::size_t>(s)],
                                at + " rows");
              expect_same_tiles(cs[static_cast<std::size_t>(s)],
                                cs_ref[static_cast<std::size_t>(s)],
                                at + " cols");
            }
          }
        }
      }
    }
  }
}

TEST(SetupOracle, KmerMatrixMatchesTripleRoute) {
  // Families of mutated copies (shared and substitute k-mers), sequences
  // with ambiguity codes, one shorter than k and one empty.
  pastis::util::Xoshiro256 rng(211);
  const std::string residues = "ACDEFGHIKLMNPQRSTVWY";
  std::vector<std::string> seqs;
  for (int f = 0; f < 12; ++f) {
    std::string base;
    const auto len = 20 + rng.below(70);
    for (std::uint64_t i = 0; i < len; ++i) base += residues[rng.below(20)];
    for (int member = 0; member < 4; ++member) {
      std::string s = base;
      for (auto& ch : s) {
        if (rng.chance(0.1)) ch = residues[rng.below(20)];
        if (rng.chance(0.01)) ch = 'X';
      }
      seqs.push_back(s);
    }
  }
  seqs.push_back("MKV");
  seqs.push_back("");

  pastis::util::ThreadPool pool3(3);
  for (int subs : {0, 8}) {
    pastis::core::PastisConfig cfg;
    cfg.subs_kmers = subs;
    const pastis::kmer::Alphabet alphabet(cfg.alphabet);
    const pastis::kmer::KmerCodec codec(alphabet.size(), cfg.k);
    const pastis::kmer::NeighborGenerator neighbors(
        alphabet, codec, cfg.make_scoring(), cfg.subs_max_loss);
    const auto n = static_cast<ps::Index>(seqs.size());
    std::vector<ps::Triple<pastis::core::KmerPos>> triples;
    for (ps::Index i = 0; i < n; ++i) {
      (void)pastis::core::extract_sequence_kmers(
          seqs[i], i, alphabet, codec, neighbors, subs, triples);
    }
    for (int p : {1, 4, 9}) {
      for (pastis::util::ThreadPool* pool :
           {static_cast<pastis::util::ThreadPool*>(nullptr), &pool3}) {
        psim::SimRuntime rt(p, psim::MachineModel{});
        const pastis::core::DistSeqStore store(seqs, p);
        pastis::core::KmerMatrixInfo info;
        const auto A =
            pastis::core::build_kmer_matrix(rt, store, cfg, &info, pool);
        const auto ref = from_global_triples<pastis::core::KmerPos>(
            rt.grid(), n, static_cast<ps::Index>(codec.space()), triples,
            [](pastis::core::KmerPos& acc, const pastis::core::KmerPos& v) {
              pastis::core::keep_min_pos(acc, v);
            });
        expect_same_tiles(A, ref,
                          "subs=" + std::to_string(subs) +
                              " p=" + std::to_string(p) +
                              " pool=" + std::to_string(pool ? 3 : 0));
        EXPECT_EQ(info.nnz, ref.nnz());
        if (subs > 0) {
          EXPECT_GT(info.substitute_kmers, 0u);
        }
      }
    }
  }
}
