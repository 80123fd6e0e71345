// Smith-Waterman local alignment with affine gaps (Gotoh's algorithm).
//
// This is the CPU-exact equivalent of the ADEPT GPU kernel the paper runs:
// the full dynamic-programming matrix is computed (no heuristics), which is
// what makes "cell updates per second" a meaningful metric (§VII). Full and
// banded alignment share one trace-back recurrence: a branch-free fill over
// a per-row band that stores 4 trace bits per cell, then an O(m+n) walk
// from the best cell that recovers the begin coordinates, matches and
// alignment columns the identity (ANI) and coverage filters need. The
// lane-group kernel runs the same recurrence on up to eight pairs at once,
// one per int16 SIMD lane, with identical results. The banded variant
// restricts the DP to a diagonal band around a seed diagonal from the
// sparse overlap phase (PASTIS exposes several alignment modes through SeqAn;
// the full-matrix ADEPT kernel remains the production default).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

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

/// Pairs one lane-group call aligns side by side: the eight int16 lanes of
/// an SSE2 register. This is the inter-sequence layout of Nguyen and
/// Lavenier's fine-grained parallelization (arXiv 0804.3643) and of ADEPT,
/// which runs one pair per GPU thread.
inline constexpr std::size_t kLaneWidth = 8;

/// Working set one thread keeps for lane groups: trace, profiles and DP
/// rows together. It is allocated once per thread, on first use, and reused
/// by every later group. A group whose working set would exceed it runs on
/// fewer lanes (8, 4 or 2); a pair too large even for two lanes runs alone
/// on the scalar kernel.
inline constexpr std::size_t kLaneScratchBytes = std::size_t{512} << 10;

/// One pair of a lane-group call. `diag_center` is read only by a banded
/// group.
struct LanePair {
  std::string_view query;
  std::string_view reference;
  int diag_center = 0;
};

/// The band every pair of a lane-group call is aligned in: the whole matrix,
/// as smith_waterman does, or half-width `half_width` around each pair's
/// diag_center, as banded_smith_waterman does.
struct LaneBand {
  bool full = true;
  int half_width = 0;
};

/// Lane groups of one batch: group g aligns pairs
/// order[group_end[g - 1] .. group_end[g]) (from 0 for g = 0).
struct LanePlan {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> group_end;

  [[nodiscard]] std::size_t groups() const { return group_end.size(); }
  [[nodiscard]] std::span<const std::uint32_t> group(std::size_t g) const {
    const std::uint32_t begin = g == 0 ? 0 : group_end[g - 1];
    return {order.data() + begin, group_end[g] - begin};
  }
};

/// Splits `pairs` into lane groups of up to kLaneWidth pairs. Pairs with
/// about the same number of DP rows and columns share a group, so few lane
/// cells are padding, and every group's working set fits
/// kLaneScratchBytes. Groups come largest DP area first, so a pool that
/// hands out one group at a time ends on small ones.
void plan_lane_groups(std::span<const LanePair> pairs, const LaneBand& band,
                      LanePlan& plan);

/// Aligns the pairs `pairs[members[k]]` side by side into
/// `out[members[k]]`. Every field equals what smith_waterman (full band) or
/// banded_smith_waterman (diag_center, band.half_width) returns for that
/// pair, `cells` included. A lane whose score reaches the int16 limit is
/// re-run alone on the scalar kernel; returns how many were. A group of one
/// pair, or one whose working set exceeds kLaneScratchBytes, runs on the
/// scalar kernel. `members.size()` must not exceed kLaneWidth.
std::size_t align_lane_group(std::span<const LanePair> pairs,
                             std::span<const std::uint32_t> members,
                             const Scoring& scoring, const LaneBand& band,
                             std::span<AlignResult> out);

/// plan_lane_groups and align_lane_group over every group, on the calling
/// thread. Returns the number of lanes re-run after int16 saturation.
std::size_t align_lanes(std::span<const LanePair> pairs,
                        const Scoring& scoring, const LaneBand& band,
                        std::span<AlignResult> out);

/// Score-only full Smith-Waterman (no begin cell, identity or coverage):
/// the cell-rate ceiling of the same dependency chain, for the kernel
/// microbench.
[[nodiscard]] int smith_waterman_score(std::string_view query,
                                       std::string_view reference,
                                       const Scoring& scoring);

}  // namespace pastis::align
