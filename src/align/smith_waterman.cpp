#include "align/smith_waterman.hpp"

#include <emmintrin.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#if !defined(__SSE2__)
#error "the lane-group kernel needs SSE2, which every x86-64 target has"
#endif

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

/// Rows a kernel computes for a band and the cells it counts: only the
/// leading rows with a non-empty band are computed.
struct Extent {
  std::int64_t rows = 0;
  std::uint64_t cells = 0;
};

Extent band_extent(std::int64_t m, const Band& band) {
  Extent x;
  if (band.half < 0 || band.n == 0) return x;
  for (std::int64_t i = 1; i <= m; ++i) {
    const std::int64_t width = band.hi(i) - band.lo(i) + 1;
    if (width <= 0) break;
    ++x.rows;
    x.cells += static_cast<std::uint64_t>(width);
  }
  return x;
}

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

  const Extent extent = band_extent(m, band);
  if (extent.cells > kMaxTraceCells) {
    return path_stat_sw(query, reference, scoring, band);
  }
  res.cells = extent.cells;
  const std::int64_t rows = extent.rows;
  if (rows == 0) return res;
  // Row i's trace starts at byte row_off[i - 1], two cells a byte.
  std::vector<std::uint32_t> row_off(static_cast<std::size_t>(rows) + 1, 0);
  for (std::int64_t i = 1; i <= rows; ++i) {
    row_off[i] = row_off[i - 1] +
                 static_cast<std::uint32_t>((band.hi(i) - band.lo(i) + 2) / 2);
  }

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

// ---- Lane groups --------------------------------------------------------
//
// A lane group runs up to eight pairs through the fill above at once, one
// pair per int16 lane. Row i of every lane is computed together, over
// `width` vectors: full Smith-Waterman keeps column layout (vector t is
// column j = t + 1), and a banded group keeps band layout (vector t is
// column j = i + center - half + t, so every lane's band starts at t = 0).
// The up neighbour of vector t is vector t + kShift of the previous row
// (kShift 0 for columns, 1 for bands) and the diagonal neighbour the one
// before it, so one in-place H and F row serves both.
//
// Cells a lane does not own are padding: columns right of its reference,
// rows below its query or below its band's first empty row, and band cells
// left of column 1. Padding never feeds an owned cell, except left of
// column 1, where a negative profile score keeps H at 0 and E and F below
// -go, exactly the boundary the scalar fill sees. Nor does padding ever
// hold a lane's best cell (see the row-maximum step of run_lane_group).

/// Profile score of a cell off the reference.
constexpr std::int8_t kPadScore = -128;

Band lane_band(const LanePair& p, const LaneBand& band) {
  return band.full ? full_band(p.query.size(), p.reference.size())
                   : Band{p.diag_center, band.half_width,
                          static_cast<std::int64_t>(p.reference.size())};
}

/// Trace lanes a group of `count` pairs keeps: 8, 4 or 2 (1 is scalar).
std::size_t lanes_for(std::size_t count) {
  return count > 4 ? 8 : count > 2 ? 4 : count;
}

/// DP shape of one lane group and the bytes of its working set.
struct LaneShape {
  std::size_t lanes = 0;      // trace lanes kept: 8, 4 or 2
  std::int64_t rows = 0;      // DP rows: the most any lane computes
  std::int64_t width = 0;     // vectors per DP row
  std::int64_t width16 = 0;   // width rounded up to whole transpose blocks
  std::int64_t prof_len = 0;  // bytes per profile row

  /// H, F and score rows; the profiles, a padding row and the encoded
  /// reference of the lane being profiled; the trace.
  [[nodiscard]] std::size_t bytes() const {
    const auto w = static_cast<std::size_t>(width);
    return sizeof(__m128i) * (2 * (w + 1) + static_cast<std::size_t>(width16)) +
           (lanes * kScoreAlphabet + 2) * static_cast<std::size_t>(prof_len) +
           static_cast<std::size_t>(rows) * w * lanes / 2;
  }
};

LaneShape lane_shape(std::span<const LanePair> pairs,
                     std::span<const std::uint32_t> members,
                     const LaneBand& band) {
  LaneShape s;
  s.lanes = lanes_for(members.size());
  std::int64_t n_max = 0;
  for (const std::uint32_t k : members) {
    const LanePair& p = pairs[k];
    const auto m = static_cast<std::int64_t>(p.query.size());
    const auto n = static_cast<std::int64_t>(p.reference.size());
    n_max = std::max(n_max, n);
    s.rows = std::max(s.rows, band_extent(m, lane_band(p, band)).rows);
  }
  const std::int64_t half = std::max(0, band.half_width);
  s.width = band.full ? n_max : 2 * half + 1;
  s.width16 = (s.width + 15) / 16 * 16;
  // Row i reads its lane's profile rows from offset 0 (full) or i - 1
  // (each band row starts one column right of the one above).
  s.prof_len =
      s.width16 + (band.full ? 0 : std::max<std::int64_t>(s.rows - 1, 0));
  return s;
}

/// One thread's lane-group working set, mapped straight from the OS: a
/// block that lives as long as its thread, inside a malloc heap, would stop
/// that heap from shrinking below it.
class LaneArena {
 public:
  LaneArena()
      : base_(::mmap(nullptr, kLaneScratchBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (base_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~LaneArena() { ::munmap(base_, kLaneScratchBytes); }
  LaneArena(const LaneArena&) = delete;
  LaneArena& operator=(const LaneArena&) = delete;

  [[nodiscard]] __m128i* data() const { return static_cast<__m128i*>(base_); }

 private:
  void* base_;
};

__m128i* lane_arena() {
  thread_local const LaneArena arena;
  return arena.data();
}

/// Row scores of the eight lanes, interleaved: lane k of S[t] is
/// src[k][t]. Transposes 16 columns at a time and widens to int16.
void transpose_scores(const std::int8_t* const src[kLaneWidth],
                      std::int64_t width16, __m128i* S) {
  const auto load = [](const std::int8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  for (std::int64_t t0 = 0; t0 < width16; t0 += 16) {
    __m128i b[8], c[8];
    for (int k = 0; k < 8; k += 2) {
      const __m128i lo = load(src[k] + t0);
      const __m128i hi = load(src[k + 1] + t0);
      b[k] = _mm_unpacklo_epi8(lo, hi);      // columns 0-7 of lanes k, k+1
      b[k + 1] = _mm_unpackhi_epi8(lo, hi);  // columns 8-15
    }
    for (int h = 0; h < 2; ++h) {  // lanes 0-3, then lanes 4-7
      const __m128i* p = b + 4 * h;
      c[4 * h + 0] = _mm_unpacklo_epi16(p[0], p[2]);  // columns 0-3
      c[4 * h + 1] = _mm_unpackhi_epi16(p[0], p[2]);  // columns 4-7
      c[4 * h + 2] = _mm_unpacklo_epi16(p[1], p[3]);  // columns 8-11
      c[4 * h + 3] = _mm_unpackhi_epi16(p[1], p[3]);  // columns 12-15
    }
    __m128i* out = S + t0;
    for (int q = 0; q < 4; ++q) {  // columns 4q .. 4q+3, all eight lanes
      const __m128i d0 = _mm_unpacklo_epi32(c[q], c[4 + q]);
      const __m128i d1 = _mm_unpackhi_epi32(c[q], c[4 + q]);
      out[4 * q + 0] = _mm_srai_epi16(_mm_unpacklo_epi8(d0, d0), 8);
      out[4 * q + 1] = _mm_srai_epi16(_mm_unpackhi_epi8(d0, d0), 8);
      out[4 * q + 2] = _mm_srai_epi16(_mm_unpacklo_epi8(d1, d1), 8);
      out[4 * q + 3] = _mm_srai_epi16(_mm_unpackhi_epi8(d1, d1), 8);
    }
  }
}

/// One bit per lane of two lane masks: bits 0-7 from `a`, 8-15 from `b`.
unsigned lane_bits(__m128i a, __m128i b) {
  return static_cast<unsigned>(_mm_movemask_epi8(_mm_packs_epi16(a, b)));
}

/// Stores the trace bits of one cell for the first kLanes lanes: bit
/// p * kLanes + k is plane p of lane k. Planes 0 and 1 hold the H source
/// (source = plane0 | plane1 << 1, the kFrom*/kRestart values), plane 2
/// that F extended rather than opened, plane 3 the same for E. `a` and `b`
/// carry planes 0, 1 and 2, 3 of all eight lanes, a plane a byte.
template <std::size_t kLanes>
void store_trace(std::uint8_t* out, unsigned a, unsigned b) {
  if constexpr (kLanes == 8) {
    const std::uint32_t w = a | b << 16;
    std::memcpy(out, &w, 4);
  } else if constexpr (kLanes == 4) {
    const auto w = static_cast<std::uint16_t>(
        (a & 0xFu) | (a >> 4 & 0xF0u) | ((b & 0xFu) | (b >> 4 & 0xF0u)) << 8);
    std::memcpy(out, &w, 2);
  } else {
    *out = static_cast<std::uint8_t>((a & 3u) | (a >> 6 & 0xCu) |
                                     ((b & 3u) | (b >> 6 & 0xCu)) << 4);
  }
}

template <int kShift, std::size_t kLanes>
std::size_t run_lane_group(std::span<const LanePair> pairs,
                           std::span<const std::uint32_t> members,
                           const Scoring& scoring, const LaneBand& band,
                           const LaneShape& shape,
                           std::span<AlignResult> out) {
  constexpr std::size_t kTraceBytes = kLanes / 2;  // per cell
  const std::size_t count = members.size();
  const std::int64_t W = shape.width;
  const std::int64_t half = band.half_width;
  const int go = scoring.gap_open() + scoring.gap_extend();
  const int ge = scoring.gap_extend();

  __m128i* const H = lane_arena();
  __m128i* const F = H + (W + 1);
  __m128i* const S = F + (W + 1);
  auto* const prof = reinterpret_cast<std::int8_t*>(S + shape.width16);
  const std::int64_t P = shape.prof_len;
  std::int8_t* const pad_row =
      prof + static_cast<std::int64_t>(kLanes * kScoreAlphabet) * P;
  auto* const codes = reinterpret_cast<std::uint8_t*>(pad_row + P);
  auto* const trace = codes + P;

  struct Lane {
    Band band{0, 0, 0};
    Extent extent;
    std::int64_t best_i = 0, best_t = 0;
  };
  Lane lane[kLaneWidth];
  std::memset(pad_row, kPadScore, static_cast<std::size_t>(P));
  for (std::size_t k = 0; k < count; ++k) {
    const LanePair& p = pairs[members[k]];
    Lane& L = lane[k];
    L.band = lane_band(p, band);
    const auto m = static_cast<std::int64_t>(p.query.size());
    const auto n = static_cast<std::int64_t>(p.reference.size());
    L.extent = band_extent(m, L.band);
    // Profile row c of lane k: x holds score(c, r[j - 1]) for column
    // j = x + base (base: column 1, or row 1's first band column), and
    // kPadScore where j is off the reference.
    const std::int64_t base = kShift == 0 ? 1 : 1 + L.band.center - half;
    const auto len = static_cast<std::size_t>(P);
    const auto clip = [len](std::int64_t x) {
      return x <= 0 ? 0 : std::min(len, static_cast<std::size_t>(x));
    };
    const std::size_t x_lo = clip(1 - base);
    const std::size_t x_hi = std::max(x_lo, clip(n + 1 - base));
    for (std::size_t x = x_lo; x < x_hi; ++x) {
      codes[x] = Scoring::encode(
          p.reference[static_cast<std::int64_t>(x) + base - 1]);
    }
    std::int8_t* row = prof + static_cast<std::int64_t>(k * kScoreAlphabet) * P;
    for (int c = 0; c < kScoreAlphabet; ++c, row += P) {
      std::int8_t score[kScoreAlphabet];
      for (int d = 0; d < kScoreAlphabet; ++d) {
        score[d] = static_cast<std::int8_t>(scoring.score(
            static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)));
      }
      std::memset(row, kPadScore, x_lo);
      for (std::size_t x = x_lo; x < x_hi; ++x) row[x] = score[codes[x]];
      std::memset(row + x_hi, kPadScore, len - x_hi);
    }
  }

  for (std::int64_t t = 0; t <= W; ++t) {
    H[t] = _mm_setzero_si128();
    F[t] = _mm_set1_epi16(std::numeric_limits<std::int16_t>::min());
  }
  const __m128i vgo = _mm_set1_epi16(static_cast<std::int16_t>(go));
  const __m128i vge = _mm_set1_epi16(static_cast<std::int16_t>(ge));
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi16(1);
  const __m128i neg = _mm_set1_epi16(std::numeric_limits<std::int16_t>::min());
  alignas(16) std::int16_t best[kLaneWidth] = {};

  for (std::int64_t i = 1; i <= shape.rows; ++i) {
    const std::int8_t* src[kLaneWidth];
    unsigned live = 0;  // lanes that own row i
    for (std::size_t k = 0; k < kLaneWidth; ++k) {
      src[k] = pad_row;
      if (k >= count || i > lane[k].extent.rows) continue;
      live |= 1u << k;
      const std::uint8_t code =
          Scoring::encode(pairs[members[k]].query[i - 1]);
      src[k] = prof + static_cast<std::int64_t>(k * kScoreAlphabet + code) * P +
               (kShift == 0 ? 0 : i - 1);
    }
    transpose_scores(src, shape.width16, S);

    __m128i h_diag = kShift == 0 ? zero : H[0];
    __m128i h_left = zero;
    __m128i e = neg;
    __m128i row_max = zero;
    std::uint8_t* cell =
        trace + (i - 1) * W * static_cast<std::int64_t>(kTraceBytes);
    for (std::int64_t t = 0; t < W; ++t) {
      const __m128i h_up = H[t + kShift];
      const __m128i f_open = _mm_subs_epi16(h_up, vgo);
      const __m128i f_ext = _mm_subs_epi16(F[t + kShift], vge);
      const __m128i f = _mm_max_epi16(f_open, f_ext);
      const __m128i f_extends = _mm_cmpgt_epi16(f_ext, f_open);
      F[t] = f;
      const __m128i e_open = _mm_subs_epi16(h_left, vgo);
      const __m128i e_ext = _mm_subs_epi16(e, vge);
      e = _mm_max_epi16(e_open, e_ext);
      const __m128i e_extends = _mm_cmpgt_epi16(e_ext, e_open);
      // The scalar tie-break diag > up > left > restart, lane-wise.
      const __m128i diag = _mm_adds_epi16(h_diag, S[t]);
      const __m128i up = _mm_cmpgt_epi16(f, diag);
      const __m128i h_df = _mm_max_epi16(diag, f);
      const __m128i left = _mm_cmpgt_epi16(e, h_df);
      const __m128i h_dfe = _mm_max_epi16(h_df, e);
      const __m128i restart = _mm_cmpgt_epi16(one, h_dfe);
      const __m128i h = _mm_max_epi16(h_dfe, zero);
      H[t] = h;
      h_diag = h_up;
      h_left = h;
      row_max = _mm_max_epi16(row_max, h);
      const __m128i src0 = _mm_or_si128(_mm_andnot_si128(left, up), restart);
      const __m128i src1 = _mm_or_si128(left, restart);
      store_trace<kLanes>(cell, lane_bits(src0, src1),
                          lane_bits(f_extends, e_extends));
      cell += kTraceBytes;
    }

    // A lane whose row maximum beats its best takes the row's first cell
    // holding that maximum. Padding needs no mask here: each padding value
    // comes from an owned cell through a gap open (go >= 1) or a kPadScore
    // diagonal, so it is below that cell, which is in this row (and then
    // above it) or in an earlier one (and then at most the best). So a
    // raised row maximum is an owned cell's, and padding never holds it.
    alignas(16) std::int16_t row_best[kLaneWidth];
    _mm_store_si128(reinterpret_cast<__m128i*>(row_best), row_max);
    const __m128i gt = _mm_cmpgt_epi16(
        row_max, _mm_load_si128(reinterpret_cast<const __m128i*>(best)));
    unsigned pending = lane_bits(gt, zero) & live;
    for (std::int64_t t = 0; pending != 0; ++t) {
      unsigned hit = lane_bits(_mm_cmpeq_epi16(H[t], row_max), zero) & pending;
      pending &= ~hit;
      while (hit != 0) {
        const auto k = static_cast<std::size_t>(__builtin_ctz(hit));
        hit &= hit - 1;
        best[k] = row_best[k];
        lane[k].best_i = i;
        lane[k].best_t = t;
      }
    }
  }

  std::size_t fallbacks = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const LanePair& p = pairs[members[k]];
    const Lane& L = lane[k];
    AlignResult& res = out[members[k]];
    if (best[k] == std::numeric_limits<std::int16_t>::max()) {
      // Saturated: some owned cell may have been clipped.
      res = trace_sw(p.query, p.reference, scoring, L.band);
      ++fallbacks;
      continue;
    }
    res = AlignResult{};
    res.cells = L.extent.cells;
    res.score = best[k];
    if (best[k] == 0) continue;

    const auto offset = [&](std::int64_t i) {
      return kShift == 0 ? 1 : i + L.band.center - half;
    };
    const auto bits = [&](std::int64_t i, std::int64_t j) -> std::uint32_t {
      std::uint32_t w = 0;
      std::memcpy(&w, trace + ((i - 1) * W + j - offset(i)) *
                                  static_cast<std::int64_t>(kTraceBytes),
                  kTraceBytes);
      return w >> k;
    };
    const auto source = [&](std::uint32_t w) {
      return (w & 1u) | (w >> kLanes & 1u) << 1;
    };
    enum class State { kH, kUp, kLeft } state = State::kH;
    std::int64_t i = L.best_i, j = L.best_t + offset(L.best_i);
    const std::int64_t end_j = j;
    std::uint32_t matches = 0, columns = 0;
    for (;;) {
      const std::uint32_t w = bits(i, j);
      if (state == State::kH) {
        const std::uint32_t src = source(w);
        if (src == kFromUp) {
          state = State::kUp;
          continue;
        }
        if (src == kFromLeft) {
          state = State::kLeft;
          continue;
        }
        ++columns;
        matches += Scoring::encode(p.query[i - 1]) ==
                           Scoring::encode(p.reference[j - 1])
                       ? 1u
                       : 0u;
        if (i > 1 && j - 1 >= L.band.lo(i - 1) &&
            source(bits(i - 1, j - 1)) != kRestart) {
          --i;
          --j;
          continue;
        }
        break;
      }
      ++columns;
      if (state == State::kUp) {
        if ((w >> 2 * kLanes & 1u) == 0) state = State::kH;
        --i;
      } else {
        if ((w >> 3 * kLanes & 1u) == 0) state = State::kH;
        --j;
      }
    }
    res.beg_q = static_cast<std::uint32_t>(i - 1);
    res.beg_r = static_cast<std::uint32_t>(j - 1);
    res.end_q = static_cast<std::uint32_t>(L.best_i);
    res.end_r = static_cast<std::uint32_t>(end_j);
    res.matches = matches;
    res.align_len = columns;
  }
  return fallbacks;
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

void plan_lane_groups(std::span<const LanePair> pairs, const LaneBand& band,
                      LanePlan& plan) {
  // Pairs by DP rows, then columns, largest first. Each group takes the
  // largest pair left and, from the next few, those closest in columns.
  struct Item {
    std::int64_t rows, cols;
    std::uint32_t index;
  };
  std::vector<Item> items(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const LanePair& p = pairs[k];
    const auto m = static_cast<std::int64_t>(p.query.size());
    items[k] = {band_extent(m, lane_band(p, band)).rows,
                static_cast<std::int64_t>(p.reference.size()),
                static_cast<std::uint32_t>(k)};
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.rows != b.rows) return a.rows > b.rows;
    if (a.cols != b.cols) return a.cols > b.cols;
    return a.index < b.index;
  });

  struct Group {
    std::uint64_t area;
    std::uint32_t begin, end;  // into `members`
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> members;
  members.reserve(pairs.size());
  std::vector<char> used(items.size(), 0);
  std::vector<std::size_t> window;
  constexpr std::size_t kWindow = 4 * kLaneWidth;
  for (std::size_t head = 0; head < items.size(); ++head) {
    if (used[head] != 0) continue;
    window.clear();
    for (std::size_t s = head + 1;
         s < items.size() && window.size() < kWindow; ++s) {
      if (used[s] == 0) window.push_back(s);
    }
    const std::int64_t cols = items[head].cols;
    std::stable_sort(window.begin(), window.end(),
                     [&](std::size_t a, std::size_t b) {
                       return std::llabs(items[a].cols - cols) <
                              std::llabs(items[b].cols - cols);
                     });
    // The most lanes whose working set fits, down to a scalar singleton.
    std::uint32_t group[kLaneWidth];
    std::size_t take = std::min(kLaneWidth, window.size() + 1);
    LaneShape shape;
    for (;; take = lanes_for(take) / 2) {
      group[0] = items[head].index;
      for (std::size_t g = 1; g < take; ++g) {
        group[g] = items[window[g - 1]].index;
      }
      shape = lane_shape(pairs, {group, take}, band);
      if (take == 1 || shape.bytes() <= kLaneScratchBytes) break;
    }
    used[head] = 1;
    for (std::size_t g = 1; g < take; ++g) used[window[g - 1]] = 1;
    const auto begin = static_cast<std::uint32_t>(members.size());
    members.insert(members.end(), group, group + take);
    groups.push_back({static_cast<std::uint64_t>(shape.rows * shape.width),
                      begin, static_cast<std::uint32_t>(members.size())});
  }

  std::stable_sort(
      groups.begin(), groups.end(),
      [](const Group& a, const Group& b) { return a.area > b.area; });
  plan.order.clear();
  plan.group_end.clear();
  for (const Group& g : groups) {
    plan.order.insert(plan.order.end(), members.begin() + g.begin,
                      members.begin() + g.end);
    plan.group_end.push_back(static_cast<std::uint32_t>(plan.order.size()));
  }
}

std::size_t align_lane_group(std::span<const LanePair> pairs,
                             std::span<const std::uint32_t> members,
                             const Scoring& scoring, const LaneBand& band,
                             std::span<AlignResult> out) {
  if (members.size() > kLaneWidth) {
    throw std::invalid_argument("align_lane_group: more pairs than lanes");
  }
  const LaneShape shape = lane_shape(pairs, members, band);
  const int go = scoring.gap_open() + scoring.gap_extend();
  if (members.size() < 2 || shape.bytes() > kLaneScratchBytes || go < 1 ||
      go > std::numeric_limits<std::int16_t>::max()) {
    for (const std::uint32_t k : members) {
      out[k] = trace_sw(pairs[k].query, pairs[k].reference, scoring,
                        lane_band(pairs[k], band));
    }
    return 0;
  }
  switch (shape.lanes * 2 + (band.full ? 0 : 1)) {
    case 16:
      return run_lane_group<0, 8>(pairs, members, scoring, band, shape, out);
    case 17:
      return run_lane_group<1, 8>(pairs, members, scoring, band, shape, out);
    case 8:
      return run_lane_group<0, 4>(pairs, members, scoring, band, shape, out);
    case 9:
      return run_lane_group<1, 4>(pairs, members, scoring, band, shape, out);
    case 4:
      return run_lane_group<0, 2>(pairs, members, scoring, band, shape, out);
    default:
      return run_lane_group<1, 2>(pairs, members, scoring, band, shape, out);
  }
}

std::size_t align_lanes(std::span<const LanePair> pairs,
                        const Scoring& scoring, const LaneBand& band,
                        std::span<AlignResult> out) {
  LanePlan plan;
  plan_lane_groups(pairs, band, plan);
  std::size_t fallbacks = 0;
  for (std::size_t g = 0; g < plan.groups(); ++g) {
    fallbacks += align_lane_group(pairs, plan.group(g), scoring, band, out);
  }
  return fallbacks;
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
