// Test oracle: Smith-Waterman/Gotoh over full 2-D score tables with an
// explicit traceback, plus the brute-force all-pairs edge set it implies.
// It shares no code with the library's kernels (which keep one in-place
// row and a packed trace, or carry path statistics) but follows the same
// documented rules: the tie-break diagonal > up > left > restart, a gap
// opens rather than extends on a tie, and the first strict row-major
// maximum ends the alignment. On a correct library the two agree exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "align/scoring.hpp"
#include "io/graph_io.hpp"

namespace pastis::test_oracle {

struct GotohAlignment {
  int score = 0;
  std::uint32_t beg_q = 0, end_q = 0, beg_r = 0, end_r = 0;
  std::uint32_t matches = 0, columns = 0;
};

inline GotohAlignment gotoh(std::string_view q, std::string_view r,
                            const align::Scoring& sc) {
  GotohAlignment out;
  const std::size_t m = q.size(), n = r.size();
  if (m == 0 || n == 0) return out;
  const int open = sc.gap_open() + sc.gap_extend();
  const int ext = sc.gap_extend();
  constexpr int kNegInf = -(1 << 28);
  const std::size_t w = n + 1;
  // H, E (gap in the query: a left move) and F (an up move), row-major.
  std::vector<int> H((m + 1) * w, 0), E((m + 1) * w, kNegInf),
      F((m + 1) * w, kNegInf);
  int best = 0;
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t c = i * w + j;
      E[c] = std::max(H[c - 1] - open, E[c - 1] - ext);
      F[c] = std::max(H[c - w] - open, F[c - w] - ext);
      const int diag = H[c - w - 1] + sc.score_chars(q[i - 1], r[j - 1]);
      H[c] = std::max({0, diag, F[c], E[c]});
      if (H[c] > best) {
        best = H[c];
        bi = i;
        bj = j;
      }
    }
  }
  out.score = best;
  if (best == 0) return out;

  // Walk back, re-deriving each move from the tables.
  enum class State { kH, kE, kF } state = State::kH;
  std::size_t i = bi, j = bj;
  for (;;) {
    const std::size_t c = i * w + j;
    if (state == State::kH) {
      const int diag = H[c - w - 1] + sc.score_chars(q[i - 1], r[j - 1]);
      if (H[c] != diag) {  // diagonal first, then up, then left
        state = H[c] == F[c] ? State::kF : State::kE;
        continue;
      }
      ++out.columns;
      if (align::Scoring::encode(q[i - 1]) == align::Scoring::encode(r[j - 1])) {
        ++out.matches;
      }
      if (H[c - w - 1] > 0) {
        --i;
        --j;
        continue;
      }
      break;
    }
    ++out.columns;
    if (state == State::kF) {
      if (F[c] == H[c - w] - open) state = State::kH;  // opened here
      --i;
    } else {
      if (E[c] == H[c - 1] - open) state = State::kH;
      --j;
    }
  }
  out.beg_q = static_cast<std::uint32_t>(i - 1);
  out.beg_r = static_cast<std::uint32_t>(j - 1);
  out.end_q = static_cast<std::uint32_t>(bi);
  out.end_r = static_cast<std::uint32_t>(bj);
  return out;
}

/// Writes the edge (a_id, b_id) of the oracle alignment of `a` (query)
/// against `b` (reference) to `out` when it passes the ANI/coverage
/// filter, with the library's float rounding; returns whether it did.
inline bool edge_of(std::uint32_t a_id, std::uint32_t b_id, std::string_view a,
                    std::string_view b, const align::Scoring& sc,
                    double ani_threshold, double cov_threshold,
                    io::SimilarityEdge& out) {
  const GotohAlignment g = gotoh(a, b, sc);
  const double ani = g.columns == 0 ? 0.0
                                    : static_cast<double>(g.matches) /
                                          static_cast<double>(g.columns);
  const double cov =
      std::min(static_cast<double>(g.end_q - g.beg_q) / static_cast<double>(a.size()),
               static_cast<double>(g.end_r - g.beg_r) / static_cast<double>(b.size()));
  if (ani < ani_threshold || cov < cov_threshold) return false;
  out = {a_id, b_id, static_cast<float>(ani), static_cast<float>(cov), g.score};
  return true;
}

/// Brute force over every pair a < b of `seqs` (only a < first_b <= b when
/// first_b > 0) whose sorted distinct k-mer lists share at least
/// `min_shared` codes: the oracle alignment of (a, b), kept by the
/// ANI/coverage filter. Sorted by (seq_a, seq_b).
inline std::vector<io::SimilarityEdge> brute_force_edges(
    const std::vector<std::string>& seqs,
    const std::vector<std::vector<std::uint64_t>>& kmers,
    std::uint32_t min_shared, std::uint32_t first_b, const align::Scoring& sc,
    double ani_threshold, double cov_threshold) {
  std::vector<io::SimilarityEdge> edges;
  const auto n = static_cast<std::uint32_t>(seqs.size());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = std::max(a + 1, first_b); b < n; ++b) {
      if (first_b > 0 && a >= first_b) break;
      std::uint32_t shared = 0;
      auto x = kmers[a].begin();
      auto y = kmers[b].begin();
      while (x != kmers[a].end() && y != kmers[b].end()) {
        if (*x < *y) {
          ++x;
        } else if (*y < *x) {
          ++y;
        } else {
          ++shared;
          ++x;
          ++y;
        }
      }
      io::SimilarityEdge e;
      if (shared >= min_shared &&
          edge_of(a, b, seqs[a], seqs[b], sc, ani_threshold, cov_threshold, e)) {
        edges.push_back(e);
      }
    }
  }
  return edges;
}

}  // namespace pastis::test_oracle
