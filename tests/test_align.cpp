// Alignment kernel tests: Smith-Waterman against an independent reference
// DP and the path-statistics recurrence, banded/x-drop variants, and the
// ADEPT-style batch driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/batch.hpp"
#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pa = pastis::align;

namespace {

const pa::Scoring& scoring() {
  static const pa::Scoring s = pa::Scoring::pastis_default();
  return s;
}

/// Independent reference: full-matrix Gotoh with explicit 2D tables.
int reference_sw_score(const std::string& q, const std::string& r,
                       const pa::Scoring& sc) {
  const int m = static_cast<int>(q.size());
  const int n = static_cast<int>(r.size());
  if (m == 0 || n == 0) return 0;
  const int go = sc.gap_open() + sc.gap_extend();
  const int ge = sc.gap_extend();
  constexpr int kNegInf = -(1 << 28);
  std::vector<std::vector<int>> H(m + 1, std::vector<int>(n + 1, 0));
  std::vector<std::vector<int>> E(m + 1, std::vector<int>(n + 1, kNegInf));
  std::vector<std::vector<int>> F(m + 1, std::vector<int>(n + 1, kNegInf));
  int best = 0;
  for (int i = 1; i <= m; ++i) {
    for (int j = 1; j <= n; ++j) {
      E[i][j] = std::max(H[i][j - 1] - go, E[i][j - 1] - ge);
      F[i][j] = std::max(H[i - 1][j] - go, F[i - 1][j] - ge);
      const int diag = H[i - 1][j - 1] + sc.score_chars(q[i - 1], r[j - 1]);
      H[i][j] = std::max({0, diag, E[i][j], F[i][j]});
      best = std::max(best, H[i][j]);
    }
  }
  return best;
}

std::string random_protein(pastis::util::Xoshiro256& rng, std::size_t len,
                           std::string_view aas = "ARNDCQEGHILKMFPSTWYV") {
  std::string s(len, 'A');
  for (auto& c : s) c = aas[rng.below(aas.size())];
  return s;
}

/// A diverged copy: substitutions plus short insertions and deletions.
std::string mutate(pastis::util::Xoshiro256& rng, const std::string& s,
                   double rate, std::string_view aas = "ARNDCQEGHILKMFPSTWYV") {
  std::string out;
  for (const char c : s) {
    if (!rng.chance(rate)) {
      out += c;
    } else if (rng.chance(0.6)) {
      out += aas[rng.below(aas.size())];
    } else if (rng.chance(0.5)) {
      out += c;
      out += random_protein(rng, 1 + rng.below(3), aas);
    }  // else: deleted
  }
  return out;
}

/// Every field of two alignment results, so a tie resolved differently
/// shows up even when the score agrees.
void expect_same(const pa::AlignResult& got, const pa::AlignResult& want) {
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.beg_q, want.beg_q);
  EXPECT_EQ(got.end_q, want.end_q);
  EXPECT_EQ(got.beg_r, want.beg_r);
  EXPECT_EQ(got.end_r, want.end_r);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.align_len, want.align_len);
  EXPECT_EQ(got.cells, want.cells);
}

/// The path-statistics reference over the whole matrix.
pa::AlignResult reference_full(const std::string& q, const std::string& r,
                               const pa::Scoring& sc) {
  return pa::path_stat_smith_waterman(
      q, r, sc, 0, static_cast<int>(std::max(q.size(), r.size())));
}

}  // namespace

TEST(Scoring, Blosum62KnownValues) {
  const auto& sc = scoring();
  EXPECT_EQ(sc.score_chars('A', 'A'), 4);
  EXPECT_EQ(sc.score_chars('W', 'W'), 11);
  EXPECT_EQ(sc.score_chars('A', 'W'), -3);
  EXPECT_EQ(sc.score_chars('E', 'D'), 2);
  EXPECT_EQ(sc.score_chars('a', 'a'), 4);  // case-insensitive
}

TEST(Scoring, SymmetricMatrix) {
  const auto& sc = scoring();
  const auto residues = pa::scoring_residues();
  for (char a : residues) {
    for (char b : residues) {
      EXPECT_EQ(sc.score_chars(a, b), sc.score_chars(b, a));
    }
  }
}

TEST(Scoring, UnknownFoldsToX) {
  const auto& sc = scoring();
  EXPECT_EQ(sc.score_chars('?', 'A'), sc.score_chars('X', 'A'));
  EXPECT_EQ(sc.score_chars('U', 'U'), sc.score_chars('C', 'C'));
}

TEST(Scoring, RejectsNegativeGaps) {
  EXPECT_THROW(pa::Scoring(pa::Scoring::Matrix::kBlosum62, -1, 2),
               std::invalid_argument);
}

TEST(Scoring, AlternativeMatricesDiffer) {
  const pa::Scoring b45(pa::Scoring::Matrix::kBlosum45, 11, 2);
  const pa::Scoring p250(pa::Scoring::Matrix::kPam250, 11, 2);
  EXPECT_EQ(b45.score_chars('A', 'A'), 5);
  EXPECT_EQ(p250.score_chars('W', 'W'), 17);
}

TEST(SmithWaterman, IdenticalSequences) {
  const std::string s = "MKVLAETGWT";
  const auto res = pa::smith_waterman(s, s, scoring());
  int self = 0;
  for (char c : s) self += scoring().score_chars(c, c);
  EXPECT_EQ(res.score, self);
  EXPECT_DOUBLE_EQ(res.identity(), 1.0);
  EXPECT_DOUBLE_EQ(res.coverage(s.size(), s.size()), 1.0);
  EXPECT_EQ(res.beg_q, 0u);
  EXPECT_EQ(res.end_q, s.size());
  EXPECT_EQ(res.cells, s.size() * s.size());
}

TEST(SmithWaterman, EmptyInputs) {
  const auto res = pa::smith_waterman("", "AAA", scoring());
  EXPECT_EQ(res.score, 0);
  EXPECT_EQ(res.align_len, 0u);
  EXPECT_DOUBLE_EQ(res.identity(), 0.0);
}

TEST(SmithWaterman, LocalAlignmentFindsEmbeddedMatch) {
  // The shared core "WWWWW" sits inside unrelated flanks.
  const std::string q = "AAAAAAWWWWWAAAAAA";
  const std::string r = "GGGGGGGGWWWWWGG";
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_EQ(res.beg_q, 6u);
  EXPECT_EQ(res.end_q, 11u);
  EXPECT_EQ(res.beg_r, 8u);
  EXPECT_EQ(res.end_r, 13u);
  EXPECT_EQ(res.matches, 5u);
  EXPECT_EQ(res.align_len, 5u);
  EXPECT_EQ(res.score, 5 * 11);
}

TEST(SmithWaterman, GapCostsAffine) {
  // One gap of length 2 should cost open + 2*extend once, not twice.
  const std::string q = "WWWWWWWW";
  const std::string r = "WWWWCCWWWW";  // needs a 2-gap in q
  const auto res = pa::smith_waterman(q, r, scoring());
  const int go = scoring().gap_open() + scoring().gap_extend();
  const int ge = scoring().gap_extend();
  EXPECT_EQ(res.score, 8 * 11 - (go + ge));
}

TEST(SmithWaterman, ScoreVariantAgreesWithFull) {
  pastis::util::Xoshiro256 rng(5);
  for (int t = 0; t < 30; ++t) {
    const auto q = random_protein(rng, 10 + rng.below(80));
    const auto r = random_protein(rng, 10 + rng.below(80));
    EXPECT_EQ(pa::smith_waterman(q, r, scoring()).score,
              pa::smith_waterman_score(q, r, scoring()));
  }
}

class SwRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwRandomSweep, MatchesReferenceDp) {
  pastis::util::Xoshiro256 rng(GetParam());
  const auto q = random_protein(rng, 5 + rng.below(120));
  const auto r = random_protein(rng, 5 + rng.below(120));
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_EQ(res.score, reference_sw_score(q, r, scoring()));
  expect_same(res, reference_full(q, r, scoring()));
  EXPECT_EQ(res.score, pa::smith_waterman(r, q, scoring()).score);  // symmetry
  // Path statistics invariants.
  EXPECT_LE(res.matches, res.align_len);
  EXPECT_LE(res.beg_q, res.end_q);
  EXPECT_LE(res.beg_r, res.end_r);
  EXPECT_LE(res.end_q, q.size());
  EXPECT_LE(res.end_r, r.size());
  EXPECT_GE(res.align_len, std::max(res.end_q - res.beg_q, res.end_r - res.beg_r));
  const double cov = res.coverage(q.size(), r.size());
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwRandomSweep,
                         ::testing::Range<std::uint64_t>(100, 140));

TEST(SmithWaterman, MutatedCopyScoresHighIdentity) {
  pastis::util::Xoshiro256 rng(77);
  const auto base = random_protein(rng, 300);
  std::string mut = base;
  for (auto& c : mut) {
    if (rng.chance(0.05)) c = random_protein(rng, 1)[0];
  }
  const auto res = pa::smith_waterman(base, mut, scoring());
  EXPECT_GT(res.identity(), 0.85);
  EXPECT_GT(res.coverage(base.size(), mut.size()), 0.95);
}

TEST(Banded, FullWidthEqualsUnbanded) {
  pastis::util::Xoshiro256 rng(31);
  for (int t = 0; t < 10; ++t) {
    const auto q = random_protein(rng, 20 + rng.below(60));
    const auto r = random_protein(rng, 20 + rng.below(60));
    const auto full = pa::smith_waterman(q, r, scoring());
    const auto band = pa::banded_smith_waterman(
        q, r, scoring(), 0, static_cast<int>(q.size() + r.size()));
    expect_same(band, full);
  }
}

TEST(Banded, NarrowBandNeverBeatsFull) {
  pastis::util::Xoshiro256 rng(37);
  for (int t = 0; t < 10; ++t) {
    const auto q = random_protein(rng, 50);
    const auto r = random_protein(rng, 50);
    const auto full = pa::smith_waterman(q, r, scoring());
    const auto band = pa::banded_smith_waterman(q, r, scoring(), 0, 5);
    EXPECT_LE(band.score, full.score);
    EXPECT_LT(band.cells, full.cells);
  }
}

TEST(Banded, FindsOnDiagonalMatch) {
  const std::string q = "AAAWWWWWAAA";
  const std::string r = "CCCWWWWWCCC";
  const auto res = pa::banded_smith_waterman(q, r, scoring(), 0, 3);
  EXPECT_EQ(res.score, 5 * 11);
}

// The trace-back kernel against the path-statistics recurrence, on inputs
// built to make the tie-break rules decide the path.
TEST(TraceKernel, TieForcingPairsMatchReference) {
  const pa::Scoring scorings[] = {
      scoring(), pa::Scoring(pa::Scoring::Matrix::kBlosum62, 1, 1),
      pa::Scoring(pa::Scoring::Matrix::kPam250, 3, 1)};
  pastis::util::Xoshiro256 rng(71);
  for (const std::string_view aas : {"AW", "ACW", "AG", "W"}) {
    for (const auto& sc : scorings) {
      for (int t = 0; t < 40; ++t) {
        const auto q = random_protein(rng, 1 + rng.below(60), aas);
        const auto r = t % 2 == 0 ? mutate(rng, q, 0.3, aas)
                                  : random_protein(rng, 1 + rng.below(60), aas);
        expect_same(pa::smith_waterman(q, r, sc), reference_full(q, r, sc));
        const int diag = static_cast<int>(rng.below(21)) - 10;
        const int half = static_cast<int>(rng.below(12));
        expect_same(pa::banded_smith_waterman(q, r, sc, diag, half),
                    pa::path_stat_smith_waterman(q, r, sc, diag, half));
      }
    }
  }
}

TEST(TraceKernel, EmptyAndSingleResidueInputs) {
  for (const std::string q : {"", "A", "W", "AW", "WAAAW"}) {
    for (const std::string r : {"", "A", "W", "WW", "AWA"}) {
      expect_same(pa::smith_waterman(q, r, scoring()),
                  reference_full(q, r, scoring()));
      for (const int half : {-1, 0, 1, 3}) {
        for (const int diag : {-3, 0, 2}) {
          expect_same(pa::banded_smith_waterman(q, r, scoring(), diag, half),
                      pa::path_stat_smith_waterman(q, r, scoring(), diag, half));
        }
      }
    }
  }
  const auto one = pa::smith_waterman("W", "W", scoring());
  EXPECT_EQ(one.score, 11);
  EXPECT_EQ(one.end_q, 1u);
  EXPECT_EQ(one.align_len, 1u);
  EXPECT_EQ(one.cells, 1u);
}

// Band half-widths and centres that put the band inside the matrix, across
// the main diagonal, clipped at the left or right edge or both, and wholly
// outside it.
TEST(TraceKernel, BandSweepMatchesReference) {
  pastis::util::Xoshiro256 rng(83);
  for (int t = 0; t < 12; ++t) {
    const auto q = random_protein(rng, 20 + rng.below(90));
    const auto r = t % 3 == 0 ? random_protein(rng, 20 + rng.below(90))
                              : mutate(rng, q, 0.25);
    const int m = static_cast<int>(q.size());
    const int n = static_cast<int>(r.size());
    for (const int half : {0, 1, 4, 16, 64, m + n}) {
      for (const int diag : {-m - half - 1, -m + 2, -20, -3, 0, 5, 17, n - 2,
                             n + half + 1}) {
        SCOPED_TRACE(testing::Message() << "pair " << t << " diag " << diag
                                        << " half " << half);
        expect_same(pa::banded_smith_waterman(q, r, scoring(), diag, half),
                    pa::path_stat_smith_waterman(q, r, scoring(), diag, half));
      }
    }
  }
}

// A DP area exactly at kMaxTraceCells still runs the trace kernel; one just
// above it takes the path-statistics path. Both must give the reference.
TEST(TraceKernel, TraceCapBoundaryMatchesReference) {
  pastis::util::Xoshiro256 rng(89);
  const auto q = random_protein(rng, 4096);
  const auto at_cap = mutate(rng, q, 0.1).substr(0, 4096);
  ASSERT_EQ(at_cap.size(), 4096u);
  ASSERT_EQ(q.size() * at_cap.size(), pa::kMaxTraceCells);
  const auto res = pa::smith_waterman(q, at_cap, scoring());
  expect_same(res, reference_full(q, at_cap, scoring()));
  EXPECT_GT(res.align_len, 3500u);

  const std::string above = at_cap + "W";
  ASSERT_GT(q.size() * above.size(), pa::kMaxTraceCells);
  expect_same(pa::smith_waterman(q, above, scoring()),
              reference_full(q, above, scoring()));
}

// ---- Lane groups -----------------------------------------------------------

namespace {

/// Lane pairs over owned strings, so the views stay valid.
struct LaneBatch {
  std::vector<std::string> q, r;
  std::vector<int> diag;

  [[nodiscard]] std::vector<pa::LanePair> pairs() const {
    std::vector<pa::LanePair> out;
    for (std::size_t k = 0; k < q.size(); ++k) out.push_back({q[k], r[k], diag[k]});
    return out;
  }
};

/// Every lane result against the path-statistics reference.
void expect_lanes_match(const LaneBatch& b, const pa::Scoring& sc,
                        const pa::LaneBand& band) {
  const auto pairs = b.pairs();
  std::vector<pa::AlignResult> out(pairs.size());
  EXPECT_EQ(pa::align_lanes(pairs, sc, band, out), 0u);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "lane pair " << k << " of " << pairs.size()
                                    << (band.full ? " full" : " banded"));
    const int m = static_cast<int>(b.q[k].size());
    const int n = static_cast<int>(b.r[k].size());
    expect_same(out[k], band.full
                            ? pa::path_stat_smith_waterman(b.q[k], b.r[k], sc, 0,
                                                           std::max(m, n))
                            : pa::path_stat_smith_waterman(
                                  b.q[k], b.r[k], sc, b.diag[k], band.half_width));
  }
}

}  // namespace

// Batches of 1, 7, 8, 9 and 17 pairs fill lane groups whole, partly and
// not at all; batches of 2 and 3 run the two- and four-lane traces. Lengths
// are mixed, some inputs are empty, and the small alphabets force the
// tie-break rules to decide the path.
TEST(LaneKernel, LaneMixFuzzMatchesReference) {
  const pa::Scoring scorings[] = {
      scoring(), pa::Scoring(pa::Scoring::Matrix::kBlosum62, 1, 1),
      pa::Scoring(pa::Scoring::Matrix::kPam250, 3, 1)};
  pastis::util::Xoshiro256 rng(97);
  for (const std::string_view aas :
       {std::string_view("AW"), std::string_view("ACW"), std::string_view("AG"),
        std::string_view("W"), std::string_view("ARNDCQEGHILKMFPSTWYV")}) {
    for (const auto& sc : scorings) {
      for (const std::size_t count : {1, 2, 3, 7, 8, 9, 17}) {
        LaneBatch b;
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t len = rng.chance(0.1) ? 0 : 1 + rng.below(90);
          b.q.push_back(random_protein(rng, len, aas));
          b.r.push_back(rng.chance(0.1)   ? std::string()
                        : rng.chance(0.6) ? mutate(rng, b.q.back(), 0.3, aas)
                                          : random_protein(rng, 1 + rng.below(90), aas));
          b.diag.push_back(static_cast<int>(rng.below(41)) - 20);
        }
        expect_lanes_match(b, sc, {});
        expect_lanes_match(b, sc, {false, static_cast<int>(rng.below(20))});
      }
    }
  }
}

// One lane scores past the int16 limit (3500 W-W matches at 11 each). It
// alone is re-run on the scalar kernel; its three neighbours in the same
// four-lane group keep their lane results, and every result matches the
// reference. (Eight lanes of 3500-column profiles would not fit the
// working-set cap, and the group would run scalar from the start.)
TEST(LaneKernel, SaturatedLaneFallsBackAlone) {
  pastis::util::Xoshiro256 rng(101);
  LaneBatch b;
  b.q.push_back(std::string(3500, 'W'));
  b.r.push_back(std::string(3500, 'W'));
  b.diag.push_back(0);
  for (int k = 1; k < 4; ++k) {
    b.q.push_back(random_protein(rng, 40 + rng.below(60)));
    b.r.push_back(mutate(rng, b.q.back(), 0.2));
    b.diag.push_back(static_cast<int>(rng.below(5)) - 2);
  }
  const auto pairs = b.pairs();
  const std::vector<std::uint32_t> members = {0, 1, 2, 3};
  std::vector<pa::AlignResult> out(pairs.size());
  const pa::LaneBand band{false, 2};
  EXPECT_EQ(pa::align_lane_group(pairs, members, scoring(), band, out), 1u);
  EXPECT_EQ(out[0].score, 3500 * 11);
  EXPECT_GT(out[0].score, 32767);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    expect_same(out[k], pa::path_stat_smith_waterman(b.q[k], b.r[k], scoring(),
                                                     b.diag[k], 2));
  }
}

// A band that enters the matrix below row 1 (diag_center < -half_width)
// gives the scalar kernel's empty alignment: the DP stops at row 1's empty
// band. The lane kernel keeps that behaviour bit for bit, next to lanes
// whose bands are in the matrix.
TEST(LaneKernel, BandBelowRowOneGivesEmptyAlignment) {
  pastis::util::Xoshiro256 rng(103);
  LaneBatch b;
  for (int k = 0; k < 8; ++k) {
    b.q.push_back(random_protein(rng, 60));
    b.r.push_back(mutate(rng, b.q.back(), 0.1));
    b.diag.push_back(k % 2 == 0 ? -20 : 0);
  }
  const auto pairs = b.pairs();
  std::vector<pa::AlignResult> out(pairs.size());
  ASSERT_EQ(pa::align_lanes(pairs, scoring(), {false, 8}, out), 0u);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    expect_same(out[k],
                pa::banded_smith_waterman(b.q[k], b.r[k], scoring(), b.diag[k], 8));
    if (b.diag[k] < -8) {
      expect_same(out[k], pa::AlignResult{});
    } else {
      EXPECT_GT(out[k].score, 0);
    }
  }
}

// Every pair lands in exactly one group of at most kLaneWidth pairs.
TEST(LaneKernel, PlanCoversEveryPairOnce) {
  pastis::util::Xoshiro256 rng(107);
  LaneBatch b;
  for (int k = 0; k < 300; ++k) {
    b.q.push_back(random_protein(rng, 1 + rng.below(900)));
    b.r.push_back(random_protein(rng, 1 + rng.below(900)));
    b.diag.push_back(0);
  }
  const auto pairs = b.pairs();
  for (const pa::LaneBand band : {pa::LaneBand{}, pa::LaneBand{false, 32}}) {
    pa::LanePlan plan;
    pa::plan_lane_groups(pairs, band, plan);
    std::vector<int> seen(pairs.size(), 0);
    for (std::size_t g = 0; g < plan.groups(); ++g) {
      const auto group = plan.group(g);
      ASSERT_GE(group.size(), 1u);
      ASSERT_LE(group.size(), pa::kLaneWidth);
      for (const std::uint32_t k : group) ++seen[k];
    }
    for (const int s : seen) EXPECT_EQ(s, 1);
  }
}

TEST(XDrop, ExactSeedExtendsFully) {
  const std::string s = "MKVLAETGWTMKVLAETGWT";
  const auto res = pa::xdrop_extend(s, s, 5, 5, 6, scoring(), 20);
  EXPECT_EQ(res.beg_q, 0u);
  EXPECT_EQ(res.end_q, s.size());
  EXPECT_DOUBLE_EQ(res.identity(), 1.0);
}

TEST(XDrop, StopsAtScoreDrop) {
  // Seed match surrounded by strong mismatches; extension must stop early.
  const std::string q = "PPPPPWWWWWWPPPPP";
  const std::string r = "GGGGGWWWWWWGGGGG";
  const auto res = pa::xdrop_extend(q, r, 5, 5, 6, scoring(), 10);
  EXPECT_GE(res.beg_q, 3u);
  EXPECT_LE(res.end_q, 13u);
  EXPECT_EQ(res.matches, 6u);
}

TEST(XDrop, MalformedSeedReturnsEmpty) {
  const auto res = pa::xdrop_extend("AAA", "AAA", 2, 0, 6, scoring(), 10);
  EXPECT_EQ(res.score, 0);
}

TEST(Batch, ResultsMatchIndividualCalls) {
  pastis::util::Xoshiro256 rng(53);
  std::vector<std::string> seqs;
  for (int i = 0; i < 12; ++i) seqs.push_back(random_protein(rng, 40 + rng.below(60)));

  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = i + 1; j < 12; j += 3) tasks.push_back({i, j, 0, 0});
  }
  pa::BatchAligner::Config cfg;
  cfg.devices = 3;
  const pa::BatchAligner aligner(scoring(), cfg);
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };

  pa::BatchStats stats;
  const auto results = aligner.align_batch(seq_of, tasks, &stats);
  ASSERT_EQ(results.size(), tasks.size());
  std::uint64_t cells = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto ref =
        pa::smith_waterman(seqs[tasks[t].q_id], seqs[tasks[t].r_id], scoring());
    EXPECT_EQ(results[t].score, ref.score);
    EXPECT_EQ(results[t].matches, ref.matches);
    cells += ref.cells;
  }
  EXPECT_EQ(stats.cells, cells);
  EXPECT_EQ(stats.pairs, tasks.size());
  EXPECT_GT(stats.kernel_seconds, 0.0);
}

TEST(Batch, DeviceCountDoesNotChangeResults) {
  pastis::util::Xoshiro256 rng(59);
  std::vector<std::string> seqs;
  for (int i = 0; i < 8; ++i) seqs.push_back(random_protein(rng, 50));
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i + 1 < 8; ++i) tasks.push_back({i, i + 1, 0, 0});
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };

  pa::BatchAligner::Config c1, c6;
  c1.devices = 1;
  c6.devices = 6;
  const auto r1 = pa::BatchAligner(scoring(), c1).align_batch(seq_of, tasks);
  const auto r6 = pa::BatchAligner(scoring(), c6).align_batch(seq_of, tasks);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_EQ(r1[t].score, r6[t].score);
    EXPECT_EQ(r1[t].matches, r6[t].matches);
  }
}

TEST(Batch, PoolExecutionMatchesInline) {
  pastis::util::Xoshiro256 rng(61);
  std::vector<std::string> seqs;
  for (int i = 0; i < 10; ++i) seqs.push_back(random_protein(rng, 60));
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 10; ++i) {
    for (std::uint32_t j = i + 1; j < 10; ++j) tasks.push_back({i, j, 0, 0});
  }
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  const pa::BatchAligner aligner(scoring(), {});
  pastis::util::ThreadPool pool(4);
  const auto inline_res = aligner.align_batch(seq_of, tasks);
  const auto pooled_res = aligner.align_batch(seq_of, tasks, nullptr, &pool);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_EQ(inline_res[t].score, pooled_res[t].score);
  }
}

TEST(Batch, BandedModeUsesSeeds) {
  const std::string a = "AAAAAAWWWWWWAAAAAA";
  const std::string b = "CCCCCCWWWWWWCCCCCC";
  pa::BatchAligner::Config cfg;
  cfg.kind = pa::AlignKind::kBanded;
  cfg.band_half_width = 4;
  const pa::BatchAligner aligner(scoring(), cfg);
  std::vector<pa::AlignTask> tasks = {{0, 1, 6, 6}};
  std::vector<std::string> seqs = {a, b};
  const auto res = aligner.align_batch(
      [&](std::uint32_t id) { return std::string_view(seqs[id]); }, tasks);
  EXPECT_EQ(res[0].score, 6 * 11);
}
