// Alphabets, the k-mer codec, window extraction and substitute k-mers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "align/scoring.hpp"
#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"
#include "kmer/extract.hpp"
#include "kmer/nearest.hpp"
#include "util/rng.hpp"

namespace pk = pastis::kmer;

TEST(Alphabet, Sizes) {
  EXPECT_EQ(pk::Alphabet(pk::Alphabet::Kind::kProtein25).size(), 25);
  EXPECT_EQ(pk::Alphabet(pk::Alphabet::Kind::kProtein20).size(), 20);
  EXPECT_EQ(pk::Alphabet(pk::Alphabet::Kind::kMurphy10).size(), 10);
}

TEST(Alphabet, Protein25EncodesEverything) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein25);
  for (char c : std::string("ARNDCQEGHILKMFPSTWYVBZX*U")) {
    EXPECT_NE(a.encode(c), pk::Alphabet::kInvalid) << c;
  }
  // Unknown letters fold to X rather than invalidating windows.
  EXPECT_EQ(a.encode('?'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('h'), a.encode('H'));
  EXPECT_EQ(a.encode('O'), a.encode('K'));
}

TEST(Alphabet, Protein20RejectsAmbiguity) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  EXPECT_EQ(a.encode('B'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('Z'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('X'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('*'), pk::Alphabet::kInvalid);
  EXPECT_NE(a.encode('U'), pk::Alphabet::kInvalid);  // folds to C
  EXPECT_EQ(a.encode('U'), a.encode('C'));
}

TEST(Alphabet, MurphyClassesCollapse) {
  const pk::Alphabet a(pk::Alphabet::Kind::kMurphy10);
  // {LVIM}, {ST}, {FYW}, {EDNQ}, {KR} share codes.
  EXPECT_EQ(a.encode('L'), a.encode('V'));
  EXPECT_EQ(a.encode('L'), a.encode('I'));
  EXPECT_EQ(a.encode('S'), a.encode('T'));
  EXPECT_EQ(a.encode('F'), a.encode('Y'));
  EXPECT_EQ(a.encode('E'), a.encode('D'));
  EXPECT_EQ(a.encode('E'), a.encode('B'));  // B ~ D/N
  EXPECT_EQ(a.encode('K'), a.encode('R'));
  EXPECT_NE(a.encode('A'), a.encode('G'));
  EXPECT_EQ(a.encode('X'), pk::Alphabet::kInvalid);
}

TEST(Alphabet, RepresentativeRoundTrip) {
  for (auto kind : {pk::Alphabet::Kind::kProtein25, pk::Alphabet::Kind::kProtein20,
                    pk::Alphabet::Kind::kMurphy10}) {
    const pk::Alphabet a(kind);
    for (int c = 0; c < a.size(); ++c) {
      const char rep = a.representative(static_cast<std::uint8_t>(c));
      EXPECT_EQ(a.encode(rep), c) << a.name() << " code " << c;
    }
  }
}

TEST(Codec, PaperKmerSpace) {
  // Table IV: the k-mer matrix has 244,140,625 columns = 25^6.
  const pk::KmerCodec codec(25, 6);
  EXPECT_EQ(codec.space(), 244140625u);
}

TEST(Codec, EncodeDecodeRoundTrip) {
  pastis::util::Xoshiro256 rng(3);
  const pk::KmerCodec codec(25, 6);
  for (int t = 0; t < 200; ++t) {
    std::vector<std::uint8_t> codes(6);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(25));
    const auto v = codec.encode(codes);
    EXPECT_LT(v, codec.space());
    EXPECT_EQ(codec.decode(v), codes);
  }
}

TEST(Codec, LexicographicOrderIsNumeric) {
  const pk::KmerCodec codec(4, 3);
  std::uint64_t prev = 0;
  bool first = true;
  for (std::uint8_t a = 0; a < 4; ++a) {
    for (std::uint8_t b = 0; b < 4; ++b) {
      for (std::uint8_t c = 0; c < 4; ++c) {
        const std::uint64_t v = codec.encode(std::vector<std::uint8_t>{a, b, c});
        if (!first) {
          EXPECT_EQ(v, prev + 1);
        }
        prev = v;
        first = false;
      }
    }
  }
}

TEST(Codec, SubstituteChangesOnePosition) {
  pastis::util::Xoshiro256 rng(5);
  const pk::KmerCodec codec(20, 6);
  for (int t = 0; t < 100; ++t) {
    std::vector<std::uint8_t> codes(6);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(20));
    const auto v = codec.encode(codes);
    const int pos = static_cast<int>(rng.below(6));
    const auto sub = static_cast<std::uint8_t>(rng.below(20));
    const auto v2 =
        codec.substitute(v, pos, codes[static_cast<std::size_t>(pos)], sub);
    auto expected = codes;
    expected[static_cast<std::size_t>(pos)] = sub;
    EXPECT_EQ(codec.decode(v2), expected);
  }
}

TEST(Codec, RejectsOverflowAndBadArgs) {
  EXPECT_THROW(pk::KmerCodec(25, 16), std::invalid_argument);
  EXPECT_THROW(pk::KmerCodec(1, 3), std::invalid_argument);
  EXPECT_THROW(pk::KmerCodec(25, 0), std::invalid_argument);
}

TEST(Extract, SlidingWindowsMatchNaive) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  const std::string seq = "MKVLAETGW";
  const auto hits = pk::extract_kmers(seq, a, codec);
  ASSERT_EQ(hits.size(), seq.size() - 2);
  for (std::size_t i = 0; i + 3 <= seq.size(); ++i) {
    std::vector<std::uint8_t> codes;
    for (std::size_t t = i; t < i + 3; ++t) codes.push_back(a.encode(seq[t]));
    EXPECT_EQ(hits[i].code, codec.encode(codes));
    EXPECT_EQ(hits[i].pos, i);
  }
}

TEST(Extract, SkipsInvalidWindows) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  // 'X' is invalid in Protein20: windows overlapping it are skipped.
  const auto hits = pk::extract_kmers("MKVXAETG", a, codec);
  std::set<std::uint32_t> positions;
  for (const auto& h : hits) positions.insert(h.pos);
  EXPECT_EQ(positions, (std::set<std::uint32_t>{0, 4, 5}));
}

TEST(Extract, ShortSequenceYieldsNothing) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 6);
  EXPECT_TRUE(pk::extract_kmers("MKV", a, codec).empty());
}

TEST(Extract, RollingEncodeMatchesDirect) {
  pastis::util::Xoshiro256 rng(7);
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein25);
  const pk::KmerCodec codec(a.size(), 6);
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  std::string seq(300, 'A');
  for (auto& c : seq) c = aas[rng.below(aas.size())];
  const auto hits = pk::extract_kmers(seq, a, codec);
  ASSERT_EQ(hits.size(), seq.size() - 5);
  for (const auto& h : hits) {
    std::vector<std::uint8_t> codes;
    for (std::uint32_t t = h.pos; t < h.pos + 6; ++t) {
      codes.push_back(a.encode(seq[t]));
    }
    EXPECT_EQ(h.code, codec.encode(codes));
  }
}

TEST(Extract, DistinctKeepsFirstPosition) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  // "MKV" appears at positions 0 and 6.
  const auto hits = pk::extract_distinct_kmers("MKVAAAMKV", a, codec);
  std::map<std::uint64_t, std::uint32_t> by_code;
  for (const auto& h : hits) {
    EXPECT_TRUE(by_code.emplace(h.code, h.pos).second) << "duplicate code";
  }
  std::vector<std::uint8_t> mkv = {a.encode('M'), a.encode('K'), a.encode('V')};
  EXPECT_EQ(by_code.at(codec.encode(mkv)), 0u);
}

TEST(Neighbors, SortedByLossAndDeterministic) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 4);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring, 100);

  std::vector<std::uint8_t> codes = {a.encode('M'), a.encode('K'),
                                     a.encode('V'), a.encode('L')};
  const auto v = codec.encode(codes);
  const auto n1 = gen.nearest(v, 25);
  const auto n2 = gen.nearest(v, 25);
  ASSERT_EQ(n1.size(), 25u);
  for (std::size_t i = 0; i < n1.size(); ++i) {
    EXPECT_EQ(n1[i].code, n2[i].code);
    if (i > 0) {
      EXPECT_GE(n1[i].loss, n1[i - 1].loss);
    }
    EXPECT_NE(n1[i].code, v);  // the k-mer itself is excluded
  }
}

TEST(Neighbors, ExactTopMAgainstBruteForce) {
  // Small alphabet/k so the full neighbourhood is enumerable.
  const pk::Alphabet a(pk::Alphabet::Kind::kMurphy10);
  const pk::KmerCodec codec(a.size(), 3);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const int max_loss = 1000;
  const pk::NeighborGenerator gen(a, codec, scoring, max_loss);

  auto loss_of = [&](std::uint64_t x, std::uint64_t y) {
    const auto cx = codec.decode(x);
    const auto cy = codec.decode(y);
    int loss = 0;
    for (int i = 0; i < 3; ++i) {
      const char ox = a.representative(cx[static_cast<std::size_t>(i)]);
      const char oy = a.representative(cy[static_cast<std::size_t>(i)]);
      loss += std::max(0, scoring.score_chars(ox, ox) -
                              scoring.score_chars(ox, oy));
    }
    return loss;
  };

  pastis::util::Xoshiro256 rng(11);
  for (int t = 0; t < 5; ++t) {
    const std::uint64_t v = rng.below(codec.space());
    const std::size_t m = 40;
    const auto got = gen.nearest(v, m);
    // Brute force all σ^k - 1 neighbours.
    std::vector<int> all;
    for (std::uint64_t y = 0; y < codec.space(); ++y) {
      if (y != v) all.push_back(loss_of(v, y));
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(got.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(got[i].loss, all[i]) << "rank " << i;
    }
  }
}

TEST(Neighbors, MaxLossCapsResults) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 4);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring, 2);
  std::vector<std::uint8_t> codes = {a.encode('W'), a.encode('W'),
                                     a.encode('W'), a.encode('W')};
  const auto res = gen.nearest(codec.encode(codes), 1000);
  for (const auto& n : res) EXPECT_LE(n.loss, 2);
}

TEST(Neighbors, ZeroMReturnsNothing) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring);
  EXPECT_TRUE(gen.nearest(0, 0).empty());
}

namespace {

/// The best-first enumeration as first written: one std::priority_queue
/// state per substitution set, each carrying its own substitution list.
/// NeighborGenerator::nearest must reproduce it exactly — including which
/// neighbours win a loss tie at the m-th place.
class ReferenceNeighbors {
 public:
  ReferenceNeighbors(const pk::Alphabet& alphabet, const pk::KmerCodec& codec,
                     const pastis::align::Scoring& scoring, int max_loss)
      : codec_(codec), max_loss_(max_loss) {
    const int sigma = alphabet.size();
    cand_.resize(static_cast<std::size_t>(sigma));
    for (int orig = 0; orig < sigma; ++orig) {
      const char oc = alphabet.representative(static_cast<std::uint8_t>(orig));
      const int self = scoring.score_chars(oc, oc);
      auto& list = cand_[static_cast<std::size_t>(orig)];
      for (int sub = 0; sub < sigma; ++sub) {
        if (sub == orig) continue;
        const char sc = alphabet.representative(static_cast<std::uint8_t>(sub));
        const int loss = std::max(0, self - scoring.score_chars(oc, sc));
        if (loss <= max_loss_) {
          list.push_back({loss, static_cast<std::uint8_t>(sub)});
        }
      }
      std::sort(list.begin(), list.end(), [](const Cand& a, const Cand& b) {
        return a.loss != b.loss ? a.loss < b.loss : a.residue < b.residue;
      });
    }
  }

  std::vector<pk::NeighborKmer> nearest(std::uint64_t code,
                                        std::size_t m) const {
    std::vector<pk::NeighborKmer> out;
    if (m == 0) return out;
    const auto residues = codec_.decode(code);
    const int k = codec_.k();
    struct Sub {
      int pos;
      int idx;
    };
    struct State {
      int loss;
      std::vector<Sub> subs;
    };
    auto sub_loss = [&](const Sub& s) {
      return cand_[residues[static_cast<std::size_t>(s.pos)]]
                  [static_cast<std::size_t>(s.idx)]
                      .loss;
    };
    auto cmp = [](const State& a, const State& b) { return a.loss > b.loss; };
    std::priority_queue<State, std::vector<State>, decltype(cmp)> heap(cmp);
    for (int p = 0; p < k; ++p) {
      if (!cand_[residues[static_cast<std::size_t>(p)]].empty()) {
        State s{0, {{p, 0}}};
        s.loss = sub_loss(s.subs.back());
        heap.push(std::move(s));
      }
    }
    while (!heap.empty() && out.size() < m) {
      State s = heap.top();
      heap.pop();
      if (s.loss > max_loss_) break;
      std::uint64_t v = code;
      for (const Sub& sub : s.subs) {
        const std::uint8_t orig = residues[static_cast<std::size_t>(sub.pos)];
        const std::uint8_t rep =
            cand_[orig][static_cast<std::size_t>(sub.idx)].residue;
        v = codec_.substitute(v, sub.pos, orig, rep);
      }
      out.push_back({v, s.loss});
      const Sub last = s.subs.back();
      const std::uint8_t last_orig =
          residues[static_cast<std::size_t>(last.pos)];
      if (static_cast<std::size_t>(last.idx) + 1 < cand_[last_orig].size()) {
        State nxt = s;
        nxt.subs.back().idx = last.idx + 1;
        nxt.loss = s.loss - sub_loss(last) + sub_loss(nxt.subs.back());
        heap.push(std::move(nxt));
      }
      for (int p = last.pos + 1; p < k; ++p) {
        if (cand_[residues[static_cast<std::size_t>(p)]].empty()) continue;
        State nxt = s;
        nxt.subs.push_back({p, 0});
        nxt.loss = s.loss + sub_loss(nxt.subs.back());
        heap.push(std::move(nxt));
      }
    }
    std::sort(out.begin(), out.end(),
              [](const pk::NeighborKmer& a, const pk::NeighborKmer& b) {
                return a.loss != b.loss ? a.loss < b.loss : a.code < b.code;
              });
    return out;
  }

 private:
  struct Cand {
    int loss;
    std::uint8_t residue;
  };
  const pk::KmerCodec& codec_;
  int max_loss_;
  std::vector<std::vector<Cand>> cand_;
};

void expect_same_neighbors(const std::vector<pk::NeighborKmer>& got,
                           const std::vector<pk::NeighborKmer>& want,
                           std::uint64_t code, std::size_t m, int max_loss) {
  ASSERT_EQ(got.size(), want.size())
      << "code=" << code << " m=" << m << " max_loss=" << max_loss;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].code, want[i].code)
        << "code=" << code << " m=" << m << " max_loss=" << max_loss
        << " i=" << i;
    ASSERT_EQ(got[i].loss, want[i].loss)
        << "code=" << code << " m=" << m << " max_loss=" << max_loss
        << " i=" << i;
  }
}

}  // namespace

TEST(Neighbors, MatchesReferenceEnumeration) {
  const auto scoring = pastis::align::Scoring::pastis_default();
  struct Space {
    pk::Alphabet::Kind kind;
    int k;
  };
  for (const Space sp : {Space{pk::Alphabet::Kind::kMurphy10, 3},
                         Space{pk::Alphabet::Kind::kProtein25, 6}}) {
    const pk::Alphabet a(sp.kind);
    const pk::KmerCodec codec(a.size(), sp.k);
    // Every 3-mer of the reduced alphabet; 2,000 sampled protein 6-mers.
    std::vector<std::uint64_t> codes;
    if (codec.space() <= 1000) {
      for (std::uint64_t v = 0; v < codec.space(); ++v) codes.push_back(v);
    } else {
      pastis::util::Xoshiro256 rng(17);
      for (int i = 0; i < 2000; ++i) codes.push_back(rng.below(codec.space()));
    }
    for (const int max_loss : {0, 2, 6, 1 << 20}) {
      const pk::NeighborGenerator gen(a, codec, scoring, max_loss);
      const ReferenceNeighbors ref(a, codec, scoring, max_loss);
      for (const std::uint64_t v : codes) {
        for (const std::size_t m : {0u, 1u, 2u, 5u, 8u, 13u, 40u}) {
          expect_same_neighbors(gen.nearest(v, m), ref.nearest(v, m), v, m,
                                max_loss);
        }
      }
    }
  }
}

TEST(Neighbors, LossTieAtCutoffFollowsPopOrderNotCode) {
  // MKVL under Protein20 with m = 4: more single substitutions tie on the
  // 4th-place loss than fit. The kept ones are those the best-first
  // enumeration pops first, not the smallest codes among the tied.
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 4);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring);
  const ReferenceNeighbors ref(a, codec, scoring, 1 << 20);
  std::vector<std::uint8_t> mkvl = {a.encode('M'), a.encode('K'),
                                    a.encode('V'), a.encode('L')};
  const auto v = codec.encode(mkvl);
  const std::size_t m = 4;
  const auto got = gen.nearest(v, m);
  expect_same_neighbors(got, ref.nearest(v, m), v, m, 1 << 20);

  // Whole neighbourhood ordered by (loss, code): its first m is what a
  // code tie-break would select.
  const auto all = gen.nearest(v, codec.space());
  ASSERT_EQ(all.size(), codec.space() - 1);
  ASSERT_EQ(got.size(), m);
  const int cutoff = got.back().loss;
  ASSERT_EQ(all[m].loss, cutoff) << "no tie straddles the m-th place";
  const std::vector<pk::NeighborKmer> by_code(all.begin(), all.begin() + m);
  bool differs = false;
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(got[i].loss, by_code[i].loss);
    differs = differs || got[i].code != by_code[i].code;
  }
  EXPECT_TRUE(differs) << "tie resolved by code at this cut-off";
}
