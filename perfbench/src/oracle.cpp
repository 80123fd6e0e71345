#include "oracle.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

namespace {

// Per-cell traceback byte.
constexpr std::uint8_t kFromDiag = 0, kFromUp = 1, kFromLeft = 2, kZero = 3;
constexpr std::uint8_t kHMask = 3;
constexpr std::uint8_t kUpOpens = 4;     // F(i,j) opened from H(i-1,j)
constexpr std::uint8_t kLeftOpens = 8;   // E(i,j) opened from H(i,j-1)
constexpr std::uint8_t kDiagChains = 16; // H(i-1,j-1) > 0: path continues

}  // namespace

OracleAlignment reference_gotoh(std::string_view q, std::string_view r,
                                const pastis::align::Scoring& scoring) {
  using pastis::align::Scoring;
  OracleAlignment out;
  const std::size_t m = q.size(), n = r.size();
  if (m == 0 || n == 0) return out;
  std::vector<std::uint8_t> qc(m), rc(n);
  for (std::size_t i = 0; i < m; ++i) qc[i] = Scoring::encode(q[i]);
  for (std::size_t j = 0; j < n; ++j) rc[j] = Scoring::encode(r[j]);
  const int open = scoring.gap_open() + scoring.gap_extend();
  const int ext = scoring.gap_extend();
  constexpr int kNegInf = -(1 << 28);

  std::vector<std::uint8_t> tb((m + 1) * (n + 1), 0);
  std::vector<int> h_up(n + 1, 0), h_row(n + 1, 0), f(n + 1, kNegInf);
  int best = 0;
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    h_row[0] = 0;
    int e = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      std::uint8_t bits = 0;
      const int e_open = h_row[j - 1] - open;
      if (e_open >= e - ext) {
        e = e_open;
        bits |= kLeftOpens;
      } else {
        e -= ext;
      }
      const int f_open = h_up[j] - open;
      if (f_open >= f[j] - ext) {
        f[j] = f_open;
        bits |= kUpOpens;
      } else {
        f[j] -= ext;
      }
      if (h_up[j - 1] > 0) bits |= kDiagChains;
      int h = h_up[j - 1] + scoring.score(qc[i - 1], rc[j - 1]);
      std::uint8_t from = kFromDiag;
      if (f[j] > h) {
        h = f[j];
        from = kFromUp;
      }
      if (e > h) {
        h = e;
        from = kFromLeft;
      }
      if (h <= 0) {
        h = 0;
        from = kZero;
      }
      tb[i * (n + 1) + j] = static_cast<std::uint8_t>(bits | from);
      h_row[j] = h;
      if (h > best) {
        best = h;
        bi = i;
        bj = j;
      }
    }
    std::swap(h_up, h_row);
  }
  out.score = best;
  if (best <= 0) return out;

  // Trace the winning path back to its start.
  out.end_q = static_cast<std::uint32_t>(bi);
  out.end_r = static_cast<std::uint32_t>(bj);
  enum class State { kH, kUp, kLeft } state = State::kH;
  std::size_t i = bi, j = bj;
  for (;;) {
    const std::uint8_t bits = tb[i * (n + 1) + j];
    if (state == State::kH) {
      const std::uint8_t from = bits & kHMask;
      if (from == kFromUp) {
        state = State::kUp;
        continue;
      }
      if (from == kFromLeft) {
        state = State::kLeft;
        continue;
      }
      // kZero cannot lie on a positive path; treat it like a fresh start.
      ++out.columns;
      if (from == kFromDiag && qc[i - 1] == rc[j - 1]) ++out.matches;
      if (from == kFromDiag && (bits & kDiagChains) != 0) {
        --i;
        --j;
        continue;
      }
      out.beg_q = static_cast<std::uint32_t>(i - 1);
      out.beg_r = static_cast<std::uint32_t>(j - 1);
      break;
    }
    ++out.columns;
    if (state == State::kUp) {
      if ((bits & kUpOpens) != 0) state = State::kH;
      --i;
    } else {
      if ((bits & kLeftOpens) != 0) state = State::kH;
      --j;
    }
  }
  return out;
}

std::optional<pastis::io::SimilarityEdge> oracle_edge(
    std::uint32_t q_id, std::uint32_t r_id, std::string_view q,
    std::string_view r, const pastis::align::Scoring& scoring,
    double ani_threshold, double cov_threshold) {
  const OracleAlignment a = reference_gotoh(q, r, scoring);
  const double ani =
      a.columns == 0 ? 0.0
                     : static_cast<double>(a.matches) /
                           static_cast<double>(a.columns);
  const double cov_q = static_cast<double>(a.end_q - a.beg_q) /
                       static_cast<double>(q.size());
  const double cov_r = static_cast<double>(a.end_r - a.beg_r) /
                       static_cast<double>(r.size());
  const double cov = std::min(cov_q, cov_r);
  if (ani < ani_threshold || cov < cov_threshold) return std::nullopt;
  return pastis::io::SimilarityEdge{q_id, r_id, static_cast<float>(ani),
                                    static_cast<float>(cov), a.score};
}

}  // namespace perfbench
