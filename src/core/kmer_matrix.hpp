// Builds the distributed sequence-by-k-mer matrix A (paper Fig. 1, left):
// A(i, h) = position of k-mer h in sequence i. With substitute k-mers
// enabled, each exact k-mer additionally contributes its m nearest
// neighbours (at the same position), widening the discovery reach (§V).
#pragma once

#include <cstdint>

#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "core/seq_store.hpp"
#include "dist/distmat.hpp"
#include "sim/runtime.hpp"

namespace pastis::core {

struct KmerMatrixInfo {
  std::uint64_t nnz = 0;
  std::uint64_t exact_kmers = 0;
  std::uint64_t substitute_kmers = 0;
  sparse::Index cols = 0;  // |Σ|^k
};

/// Builds A on the runtime's grid and charges the construction to
/// Comp::kSparseOther on every rank (extraction streams each rank's owned
/// sequences; assembly sends each tile to its owner). Rows are extracted
/// and tiles assembled on `pool` (serially when null); the tiles do not
/// depend on the pool.
[[nodiscard]] dist::DistSpMat<KmerPos> build_kmer_matrix(
    sim::SimRuntime& rt, const DistSeqStore& store, const PastisConfig& cfg,
    KmerMatrixInfo* info = nullptr,
    util::ThreadPool* pool = &util::ThreadPool::global());

}  // namespace pastis::core
