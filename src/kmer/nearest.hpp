// Substitute k-mers: the m nearest neighbours of a k-mer under the
// substitution-score metric (paper §V: "PASTIS has the option to introduce
// substitute k-mers that are m-nearest neighbors of a k-mer ... which can
// enhance the sensitivity").
//
// The distance of a neighbour is its score *loss*: Σ_i S(a_i,a_i) −
// S(a_i,b_i) under BLOSUM62. Neighbours are enumerated best-first with a
// binary heap over partial substitution sets, so the top-m list is exact
// for any m (no single-substitution-only approximation). The states live in
// a per-thread arena that is reused across calls.
#pragma once

#include <cstdint>
#include <vector>

#include "align/scoring.hpp"
#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"

namespace pastis::kmer {

struct NeighborKmer {
  std::uint64_t code = 0;
  int loss = 0;  // score drop versus the exact k-mer; 0 only for itself
};

class NeighborGenerator {
 public:
  /// `max_loss` caps how dissimilar a substitute may be; neighbours whose
  /// loss exceeds it are never returned regardless of m.
  NeighborGenerator(const Alphabet& alphabet, const KmerCodec& codec,
                    const align::Scoring& scoring, int max_loss = 1 << 20);

  /// The m nearest substitute k-mers of `code` (the k-mer itself excluded),
  /// returned in ascending loss, equal losses by ascending code. When more
  /// neighbours tie on the loss of the m-th place than fit, the ones kept
  /// are those the best-first enumeration pops first (a fixed order that
  /// depends only on the k-mer and m), not the smallest codes.
  [[nodiscard]] std::vector<NeighborKmer> nearest(std::uint64_t code,
                                                  std::size_t m) const;

 private:
  struct Candidate {
    int loss;
    std::uint8_t residue;
  };

  const Alphabet& alphabet_;
  const KmerCodec& codec_;
  int max_loss_;
  // cand_[c] = substitutions for residue code c, ascending by loss.
  std::vector<std::vector<Candidate>> cand_;
  // weight_[pos] = σ^(k-1-pos), the code step of a change at position pos.
  std::vector<std::uint64_t> weight_;
};

}  // namespace pastis::kmer
