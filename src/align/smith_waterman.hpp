// Smith-Waterman local alignment with affine gaps (Gotoh's algorithm).
//
// This is the CPU-exact equivalent of the ADEPT GPU kernel the paper runs:
// the full dynamic-programming matrix is computed (no heuristics), which is
// what makes "cell updates per second" a meaningful metric (§VII). Full and
// banded alignment share one trace-back kernel: a branch-free fill over a
// per-row band that stores 4 trace bits per cell, then an O(m+n) walk from
// the best cell that recovers the begin coordinates, matches and alignment
// columns the identity (ANI) and coverage filters need. The banded variant
// restricts the DP to a diagonal band around a seed diagonal from the
// sparse overlap phase (PASTIS exposes several alignment modes through SeqAn;
// the full-matrix ADEPT kernel remains the production default).
#pragma once

#include <cstdint>
#include <string_view>

#include "align/scoring.hpp"

namespace pastis::align {

/// Outcome of one pairwise local alignment.
struct AlignResult {
  int score = 0;
  // Half-open alignment windows [beg, end) on query and reference.
  std::uint32_t beg_q = 0, end_q = 0;
  std::uint32_t beg_r = 0, end_r = 0;
  std::uint32_t matches = 0;     // identical aligned residue pairs
  std::uint32_t align_len = 0;   // alignment columns (incl. gaps)
  std::uint64_t cells = 0;       // DP cells updated (CUPS accounting)

  /// Sequence identity of the aligned region; the paper's "ANI" filter
  /// (threshold 0.30 in Table IV) applies to this value.
  [[nodiscard]] double identity() const {
    return align_len == 0 ? 0.0
                          : static_cast<double>(matches) /
                                static_cast<double>(align_len);
  }

  /// Coverage of a sequence of length `len` by its aligned window.
  [[nodiscard]] static double coverage_of(std::uint32_t beg, std::uint32_t end,
                                          std::size_t len) {
    return len == 0 ? 0.0
                    : static_cast<double>(end - beg) /
                          static_cast<double>(len);
  }

  /// Short coverage: the smaller of the two per-sequence coverages. PASTIS
  /// requires this to clear the threshold (0.70 in Table IV) so that neither
  /// sequence is matched by only a small fragment.
  [[nodiscard]] double coverage(std::size_t len_q, std::size_t len_r) const {
    const double cq = coverage_of(beg_q, end_q, len_q);
    const double cr = coverage_of(beg_r, end_r, len_r);
    return cq < cr ? cq : cr;
  }
};

/// Largest DP area (cells) whose trace one call keeps: 4 bits a cell, so at
/// most 8 MiB. Larger areas are aligned by `path_stat_smith_waterman`, which
/// gives the same result in O(n) memory at a lower cell rate.
inline constexpr std::uint64_t kMaxTraceCells = std::uint64_t{1} << 24;

/// Full Smith-Waterman/Gotoh. Sequences are ASCII amino-acid strings.
/// Deterministic tie-breaking (diagonal > up > left > restart; a gap opens
/// rather than extends on a tie; the first strict row-major maximum ends the
/// alignment) makes results identical across any parallel decomposition.
/// `cells` is m·n.
[[nodiscard]] AlignResult smith_waterman(std::string_view query,
                                         std::string_view reference,
                                         const Scoring& scoring);

/// Aligns within the band |(j - i) - diag_center| <= half_width, where i/j
/// are 0-based query/reference offsets. `diag_center` is typically
/// seed_r - seed_q from a shared k-mer. Cells outside the band are not
/// updated; `cells` counts the band cells. The DP stops at the first query
/// row whose band holds no reference column.
[[nodiscard]] AlignResult banded_smith_waterman(std::string_view query,
                                                std::string_view reference,
                                                const Scoring& scoring,
                                                int diag_center,
                                                int half_width);

/// The banded alignment above computed by carrying path statistics (begin
/// cell, matches, columns) through every DP state instead of keeping a
/// trace. Every field equals `banded_smith_waterman`'s; a band of
/// half-width max(m, n) around diagonal 0 is full Smith-Waterman. The
/// kernels fall back to it above `kMaxTraceCells`, and tests use it as the
/// independent reference.
[[nodiscard]] AlignResult path_stat_smith_waterman(std::string_view query,
                                                   std::string_view reference,
                                                   const Scoring& scoring,
                                                   int diag_center,
                                                   int half_width);

/// Score-only full Smith-Waterman (no begin cell, identity or coverage):
/// the cell-rate ceiling of the same dependency chain, for the kernel
/// microbench.
[[nodiscard]] int smith_waterman_score(std::string_view query,
                                       std::string_view reference,
                                       const Scoring& scoring);

}  // namespace pastis::align
