#include "kmer/nearest.hpp"

#include <algorithm>
#include <array>

namespace pastis::kmer {

NeighborGenerator::NeighborGenerator(const Alphabet& alphabet,
                                     const KmerCodec& codec,
                                     const align::Scoring& scoring,
                                     int max_loss)
    : alphabet_(alphabet), codec_(codec), max_loss_(max_loss) {
  const int sigma = alphabet.size();
  cand_.resize(static_cast<std::size_t>(sigma));
  for (int orig = 0; orig < sigma; ++orig) {
    const char orig_char =
        alphabet.representative(static_cast<std::uint8_t>(orig));
    const int self = scoring.score_chars(orig_char, orig_char);
    auto& list = cand_[static_cast<std::size_t>(orig)];
    for (int sub = 0; sub < sigma; ++sub) {
      if (sub == orig) continue;
      const char sub_char =
          alphabet.representative(static_cast<std::uint8_t>(sub));
      // Loss is clamped at zero: for ambiguity residues (X, *) some
      // substitutions score higher than the self-match; treating them as
      // zero-loss keeps the best-first enumeration monotone and matches the
      // intuition that X-positions substitute freely.
      const int loss = std::max(0, self - scoring.score_chars(orig_char, sub_char));
      if (loss <= max_loss_) {
        list.push_back({loss, static_cast<std::uint8_t>(sub)});
      }
    }
    std::sort(list.begin(), list.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.loss != b.loss ? a.loss < b.loss
                                        : a.residue < b.residue;
              });
  }
  // weight_[pos] = σ^(k-1-pos): the code step of position pos.
  weight_.assign(static_cast<std::size_t>(codec.k()), 1);
  for (int pos = codec.k() - 2; pos >= 0; --pos) {
    weight_[static_cast<std::size_t>(pos)] =
        weight_[static_cast<std::size_t>(pos) + 1] *
        static_cast<std::uint64_t>(sigma);
  }
}

std::vector<NeighborKmer> NeighborGenerator::nearest(std::uint64_t code,
                                                     std::size_t m) const {
  std::vector<NeighborKmer> out;
  if (m == 0) return out;
  const int k = codec_.k();
  // σ >= 2 and σ^k <= 2^62 bound k by 62.
  std::array<std::uint8_t, 64> residues{};
  {
    std::uint64_t v = code;
    const auto sigma = static_cast<std::uint64_t>(codec_.sigma());
    for (int i = k - 1; i >= 0; --i) {
      residues[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v % sigma);
      v /= sigma;
    }
  }

  // A state is a substitution set {(pos, cand-idx)} with strictly increasing
  // positions. Every state is generated exactly once:
  //   * initial states: one substitution {(p, 0)} for each position p;
  //   * successor (a): advance the LAST substitution's candidate index;
  //   * successor (b): append a substitution (p', 0) at any position p'
  //     after the last one.
  // A set {(p1,i1),...,(pn,in)} has the unique derivation p1 first, indices
  // advanced before each append — so no duplicates. Candidate lists are
  // loss-ascending and losses are >= 0, so both successors never decrease
  // the total loss and the heap pops states in globally sorted order.
  //
  // A state is an arena node holding only its last substitution and the
  // code with every earlier substitution applied (`base`): successor (a)
  // shares the base, successor (b) takes the state's own code as its base.
  // The heap orders (loss, node) entries by loss alone, with the push
  // order below, so its pops — and the choice among neighbours that tie on
  // loss at the m-th place — follow one fixed best-first sequence.
  struct Node {
    std::uint64_t base;
    int loss;
    int pos;
    int idx;
  };
  struct Entry {
    int loss;
    std::uint32_t node;
  };
  thread_local std::vector<Node> arena;
  thread_local std::vector<Entry> heap;
  arena.clear();
  heap.clear();
  auto cand_of = [&](int pos) -> const std::vector<Candidate>& {
    return cand_[residues[static_cast<std::size_t>(pos)]];
  };
  auto code_of = [&](const Node& n) {
    const std::uint8_t orig = residues[static_cast<std::size_t>(n.pos)];
    const std::uint8_t rep =
        cand_of(n.pos)[static_cast<std::size_t>(n.idx)].residue;
    return n.base + weight_[static_cast<std::size_t>(n.pos)] *
                        (static_cast<std::uint64_t>(rep) -
                         static_cast<std::uint64_t>(orig));
  };
  auto cmp = [](const Entry& a, const Entry& b) { return a.loss > b.loss; };
  auto push = [&](const Node& n) {
    heap.push_back({n.loss, static_cast<std::uint32_t>(arena.size())});
    arena.push_back(n);
    std::push_heap(heap.begin(), heap.end(), cmp);
  };

  for (int p = 0; p < k; ++p) {
    if (!cand_of(p).empty()) push({code, cand_of(p).front().loss, p, 0});
  }

  while (!heap.empty() && out.size() < m) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const Node s = arena[heap.back().node];
    heap.pop_back();
    if (s.loss > max_loss_) break;

    const std::uint64_t v = code_of(s);
    out.push_back({v, s.loss});

    const auto& last = cand_of(s.pos);
    // (a) advance the last substitution to its next-best candidate.
    if (static_cast<std::size_t>(s.idx) + 1 < last.size()) {
      push({s.base,
            s.loss - last[static_cast<std::size_t>(s.idx)].loss +
                last[static_cast<std::size_t>(s.idx) + 1].loss,
            s.pos, s.idx + 1});
    }
    // (b) append a substitution at every later position.
    for (int p = s.pos + 1; p < k; ++p) {
      if (cand_of(p).empty()) continue;
      push({v, s.loss + cand_of(p).front().loss, p, 0});
    }
  }

  // Deterministic order: ascending loss, then code.
  std::sort(out.begin(), out.end(),
            [](const NeighborKmer& a, const NeighborKmer& b) {
              return a.loss != b.loss ? a.loss < b.loss : a.code < b.code;
            });
  return out;
}

}  // namespace pastis::kmer
