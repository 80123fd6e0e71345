#include "align/smith_waterman.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace pastis::align {

namespace {

constexpr int kNegInf = -(1 << 28);

// Trace nibble of one cell: bits 0-1 say where H came from, bit 2 that F
// opened from the H above, bit 3 that E opened from the H to the left. The
// diagonal move chains exactly when H(i-1, j-1) > 0, i.e. when that cell's
// source is not kRestart, so it needs no bit of its own.
constexpr unsigned kFromDiag = 0, kFromUp = 1, kFromLeft = 2, kRestart = 3;
constexpr unsigned kSourceMask = 3, kUpOpens = 4, kLeftOpens = 8;

/// Row band in 1-based reference columns: row i updates
/// [i + center - half, i + center + half] clipped to [1, n]. Both ends move
/// right by at most one column per row, which the in-place row arrays rely on.
struct Band {
  std::int64_t center, half, n;

  [[nodiscard]] std::int64_t lo(std::int64_t i) const {
    return std::max<std::int64_t>(1, i + center - half);
  }
  [[nodiscard]] std::int64_t hi(std::int64_t i) const {
    return std::min(n, i + center + half);
  }
};

/// The band of full Smith-Waterman: every row spans [1, n].
Band full_band(std::size_t m, std::size_t n) {
  return {0, static_cast<std::int64_t>(std::max(m, n)),
          static_cast<std::int64_t>(n)};
}

std::vector<std::uint8_t> encode_seq(std::string_view s) {
  std::vector<std::uint8_t> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = Scoring::encode(s[i]);
  return out;
}

AlignResult path_stat_sw(std::string_view query, std::string_view reference,
                         const Scoring& scoring, const Band& band) {
  AlignResult res;
  const auto m = static_cast<std::int64_t>(query.size());
  const auto n = static_cast<std::int64_t>(reference.size());
  if (m == 0 || n == 0 || band.half < 0) return res;

  const auto q = encode_seq(query);
  const auto r = encode_seq(reference);
  const int go = scoring.gap_open() + scoring.gap_extend();  // first residue
  const int ge = scoring.gap_extend();                       // each further

  // Begin cell, matches and columns of the best path into a DP state.
  struct PathStat {
    std::uint32_t beg_q = 0, beg_r = 0, matches = 0, len = 0;
  };

  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0);
  std::vector<int> f_prev(n + 1, kNegInf), f_cur(n + 1, kNegInf);
  std::vector<PathStat> sh_prev(n + 1), sh_cur(n + 1);
  std::vector<PathStat> sf_prev(n + 1), sf_cur(n + 1);

  int best = 0;
  std::uint32_t best_i = 0, best_j = 0;
  PathStat best_stat;
  std::uint64_t cells = 0;

  for (std::int64_t i = 1; i <= m; ++i) {
    const std::int64_t lo = band.lo(i);
    const std::int64_t hi = band.hi(i);
    if (lo > hi) break;

    // Cells just outside the band behave as score 0 / -inf boundaries.
    h_cur[lo - 1] = 0;
    sh_cur[lo - 1] = PathStat{};
    int e_score = kNegInf;
    PathStat e_stat;
    const std::uint8_t qi = q[i - 1];

    for (std::int64_t j = lo; j <= hi; ++j) {
      ++cells;
      // E: gap consuming the reference (left transitions within this row).
      const int e_open = h_cur[j - 1] - go;
      const int e_ext = e_score - ge;
      if (e_open >= e_ext) {
        e_score = e_open;
        e_stat = sh_cur[j - 1];
      } else {
        e_score = e_ext;
      }
      ++e_stat.len;

      // F: gap consuming the query (up transitions from the previous row).
      const int f_open = h_prev[j] - go;
      const int f_ext = f_prev[j] - ge;
      PathStat f_stat;
      int f_score;
      if (f_open >= f_ext) {
        f_score = f_open;
        f_stat = sh_prev[j];
      } else {
        f_score = f_ext;
        f_stat = sf_prev[j];
      }
      ++f_stat.len;
      f_cur[j] = f_score;
      sf_cur[j] = f_stat;

      // Diagonal: substitution (or fresh start if the previous H was 0).
      const bool is_match = qi == r[j - 1];
      const int diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
      PathStat d_stat;
      if (h_prev[j - 1] > 0) {
        d_stat = sh_prev[j - 1];
      } else {
        d_stat.beg_q = static_cast<std::uint32_t>(i - 1);
        d_stat.beg_r = static_cast<std::uint32_t>(j - 1);
      }
      d_stat.matches += is_match ? 1u : 0u;
      ++d_stat.len;

      // H: deterministic tie-break diag > up (F) > left (E) > restart.
      int h = diag;
      PathStat s = d_stat;
      if (f_score > h) {
        h = f_score;
        s = f_stat;
      }
      if (e_score > h) {
        h = e_score;
        s = e_stat;
      }
      if (h <= 0) {
        h = 0;
        s = PathStat{};
      }
      h_cur[j] = h;
      sh_cur[j] = s;
      if (h > best) {
        best = h;
        best_i = static_cast<std::uint32_t>(i);
        best_j = static_cast<std::uint32_t>(j);
        best_stat = s;
      }
    }
    // Clear the cell to the right of the band so the next row's up
    // transition from it behaves as a boundary.
    if (hi + 1 <= n) {
      h_cur[hi + 1] = 0;
      f_cur[hi + 1] = kNegInf;
      sh_cur[hi + 1] = PathStat{};
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
    std::swap(sh_prev, sh_cur);
    std::swap(sf_prev, sf_cur);
  }

  res.cells = cells;
  res.score = best;
  if (best > 0) {
    res.beg_q = best_stat.beg_q;
    res.beg_r = best_stat.beg_r;
    res.end_q = best_i;
    res.end_r = best_j;
    res.matches = best_stat.matches;
    res.align_len = best_stat.len;
  }
  return res;
}

/// Trace-back Gotoh over `band`: the same decisions as path_stat_sw, with
/// the path recovered afterwards from a 4-bit trace instead of carried.
AlignResult trace_sw(std::string_view query, std::string_view reference,
                     const Scoring& scoring, const Band& band) {
  AlignResult res;
  const auto m = static_cast<std::int64_t>(query.size());
  const auto n = static_cast<std::int64_t>(reference.size());
  if (m == 0 || n == 0 || band.half < 0) return res;

  // Row i's trace starts at byte row_off[i - 1], two cells a byte. Only the
  // leading rows with a non-empty band are computed.
  std::vector<std::uint32_t> row_off(1, 0);
  row_off.reserve(static_cast<std::size_t>(m) + 1);
  std::uint64_t cells = 0;
  for (std::int64_t i = 1; i <= m; ++i) {
    const std::int64_t width = band.hi(i) - band.lo(i) + 1;
    if (width <= 0) break;
    cells += static_cast<std::uint64_t>(width);
    if (cells > kMaxTraceCells) {
      return path_stat_sw(query, reference, scoring, band);
    }
    row_off.push_back(row_off.back() +
                      static_cast<std::uint32_t>((width + 1) / 2));
  }
  res.cells = cells;
  const auto rows = static_cast<std::int64_t>(row_off.size()) - 1;
  if (rows == 0) return res;

  const auto q = encode_seq(query);
  const auto r = encode_seq(reference);
  const int go = scoring.gap_open() + scoring.gap_extend();
  const int ge = scoring.gap_extend();

  // Query profile: prof[c * n + j] scores residue code c against r[j].
  std::vector<std::int8_t> prof(static_cast<std::size_t>(kScoreAlphabet * n));
  for (int c = 0; c < kScoreAlphabet; ++c) {
    for (std::int64_t j = 0; j < n; ++j) {
      prof[c * n + j] = static_cast<std::int8_t>(
          scoring.score(static_cast<std::uint8_t>(c), r[j]));
    }
  }
  const auto trace = std::make_unique_for_overwrite<std::uint8_t[]>(
      row_off.back());

  // One H and one F row updated in place: before cell j of row i is
  // written, H[j] and F[j] still hold row i - 1. Columns right of the band
  // are never written before the band reaches them, so they keep the
  // boundary values 0 and kNegInf.
  std::vector<int> H(n + 1, 0), F(n + 1, kNegInf);
  int* const h_row = H.data();
  int* const f_row = F.data();
  int best = 0;
  std::int64_t best_i = 0, best_j = 0;

  for (std::int64_t i = 1; i <= rows; ++i) {
    const std::int64_t lo = band.lo(i);
    const std::int64_t hi = band.hi(i);
    const std::int8_t* score = prof.data() + q[i - 1] * n;
    int h_diag = h_row[lo - 1];  // H(i-1, lo-1): in band, or the 0 boundary
    int h_left = 0;
    int e = kNegInf;
    int row_max = 0;

    const auto cell = [&](std::int64_t j) -> unsigned {
      const int h_up = h_row[j];
      const int e_open = h_left - go;
      const unsigned e_opens = e_open >= e - ge;
      e = std::max(e_open, e - ge);
      const int f_open = h_up - go;
      const unsigned f_opens = f_open >= f_row[j] - ge;
      const int f = std::max(f_open, f_row[j] - ge);
      f_row[j] = f;
      // Source by the tie-break diag > up > left > restart, kept free of
      // branches: the comparisons are data-dependent and mispredict.
      const int diag = h_diag + score[j - 1];
      const unsigned up = f > diag;
      const int h_df = std::max(diag, f);
      const unsigned left = e > h_df;
      const int h_dfe = std::max(h_df, e);
      const unsigned restart = h_dfe <= 0;
      const int h = std::max(h_dfe, 0);
      h_row[j] = h;
      h_diag = h_up;
      h_left = h;
      row_max = std::max(row_max, h);
      const unsigned src = (left * kFromLeft | (up & ~left) * kFromUp) |
                           restart * kRestart;
      return src | f_opens * kUpOpens | e_opens * kLeftOpens;
    };

    std::uint8_t* out = trace.get() + row_off[i - 1];
    std::int64_t j = lo;
    for (; j < hi; j += 2) {
      const unsigned first = cell(j);
      *out++ = static_cast<std::uint8_t>(first | cell(j + 1) << 4);
    }
    if (j == hi) *out = static_cast<std::uint8_t>(cell(j));

    // The first strict row-major maximum is the row's first cell holding
    // the row maximum, if that beats every earlier row.
    if (row_max > best) {
      best = row_max;
      best_i = i;
      best_j = std::find(H.begin() + lo, H.begin() + hi + 1, row_max) -
               H.begin();
    }
  }

  res.score = best;
  if (best == 0) return res;

  const auto nibble = [&](std::int64_t i, std::int64_t j) -> unsigned {
    const auto k = static_cast<std::uint64_t>(j - band.lo(i));
    return trace[row_off[i - 1] + k / 2] >> (k & 1) * 4 & 0xFu;
  };

  // Walk back from the best cell. The walk only enters cells on a path of
  // positive score, which all lie inside the band.
  enum class State { kH, kUp, kLeft } state = State::kH;
  std::int64_t i = best_i, j = best_j;
  std::uint32_t matches = 0, columns = 0;
  for (;;) {
    const unsigned bits = nibble(i, j);
    if (state == State::kH) {
      const unsigned src = bits & kSourceMask;
      if (src == kFromUp) {
        state = State::kUp;
        continue;
      }
      if (src == kFromLeft) {
        state = State::kLeft;
        continue;
      }
      ++columns;
      matches += q[i - 1] == r[j - 1] ? 1u : 0u;
      if (i > 1 && j - 1 >= band.lo(i - 1) &&
          (nibble(i - 1, j - 1) & kSourceMask) != kRestart) {
        --i;
        --j;
        continue;
      }
      break;
    }
    ++columns;
    if (state == State::kUp) {
      if ((bits & kUpOpens) != 0) state = State::kH;
      --i;
    } else {
      if ((bits & kLeftOpens) != 0) state = State::kH;
      --j;
    }
  }
  res.beg_q = static_cast<std::uint32_t>(i - 1);
  res.beg_r = static_cast<std::uint32_t>(j - 1);
  res.end_q = static_cast<std::uint32_t>(best_i);
  res.end_r = static_cast<std::uint32_t>(best_j);
  res.matches = matches;
  res.align_len = columns;
  return res;
}

}  // namespace

AlignResult smith_waterman(std::string_view query, std::string_view reference,
                           const Scoring& scoring) {
  return trace_sw(query, reference, scoring,
                  full_band(query.size(), reference.size()));
}

AlignResult banded_smith_waterman(std::string_view query,
                                  std::string_view reference,
                                  const Scoring& scoring, int diag_center,
                                  int half_width) {
  return trace_sw(query, reference, scoring,
                  {diag_center, half_width,
                   static_cast<std::int64_t>(reference.size())});
}

AlignResult path_stat_smith_waterman(std::string_view query,
                                     std::string_view reference,
                                     const Scoring& scoring, int diag_center,
                                     int half_width) {
  return path_stat_sw(query, reference, scoring,
                      {diag_center, half_width,
                       static_cast<std::int64_t>(reference.size())});
}

int smith_waterman_score(std::string_view query, std::string_view reference,
                         const Scoring& scoring) {
  const std::size_t m = query.size();
  const std::size_t n = reference.size();
  if (m == 0 || n == 0) return 0;

  const auto q = encode_seq(query);
  const auto r = encode_seq(reference);
  const int go = scoring.gap_open() + scoring.gap_extend();
  const int ge = scoring.gap_extend();

  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0);
  std::vector<int> f_row(n + 1, kNegInf);

  int best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    int e_score = kNegInf;
    h_cur[0] = 0;
    const std::uint8_t qi = q[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      e_score = std::max(h_cur[j - 1] - go, e_score - ge);
      f_row[j] = std::max(h_prev[j] - go, f_row[j] - ge);
      const int diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
      int h = std::max({0, diag, f_row[j], e_score});
      h_cur[j] = h;
      best = std::max(best, h);
    }
    std::swap(h_prev, h_cur);
  }
  return best;
}

}  // namespace pastis::align
