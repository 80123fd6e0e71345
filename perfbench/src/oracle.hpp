// Benchmark-side output oracle: Smith-Waterman/Gotoh with a full traceback
// and the Table-IV ANI/coverage filter, written independently of the
// library's kernels (which carry path statistics through the recurrence
// instead of tracing back). Same scoring and the same documented tie-break
// order (diagonal > up > left > restart, first best cell in row-major
// order), so on a correct kernel the two agree exactly — score, windows,
// identity and coverage — and a kernel change that alters any of them is
// caught here.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "align/scoring.hpp"
#include "io/graph_io.hpp"

namespace perfbench {

struct OracleAlignment {
  int score = 0;
  std::uint32_t beg_q = 0, end_q = 0, beg_r = 0, end_r = 0;
  std::uint32_t matches = 0, columns = 0;
};

OracleAlignment reference_gotoh(std::string_view q, std::string_view r,
                                const pastis::align::Scoring& scoring);

/// The similarity edge (q_id, r_id) full SW plus the ANI/coverage filter
/// would report, or nullopt.
std::optional<pastis::io::SimilarityEdge> oracle_edge(
    std::uint32_t q_id, std::uint32_t r_id, std::string_view q,
    std::string_view r, const pastis::align::Scoring& scoring,
    double ani_threshold, double cov_threshold);

}  // namespace perfbench
