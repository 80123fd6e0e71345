#include "inputs.hpp"

#include <algorithm>
#include <array>

#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using pastis::util::Xoshiro256;

// Natural amino-acid frequencies (UniProt averages), as in the library's
// generator.
constexpr std::array<std::pair<char, double>, 20> kAaFreq = {{
    {'A', 0.0825}, {'R', 0.0553}, {'N', 0.0406}, {'D', 0.0545},
    {'C', 0.0137}, {'Q', 0.0393}, {'E', 0.0675}, {'G', 0.0707},
    {'H', 0.0227}, {'I', 0.0596}, {'L', 0.0966}, {'K', 0.0584},
    {'M', 0.0242}, {'F', 0.0386}, {'P', 0.0470}, {'S', 0.0656},
    {'T', 0.0534}, {'W', 0.0108}, {'Y', 0.0292}, {'V', 0.0687},
}};

constexpr std::uint64_t kShapeSeed = 0x5ea7c0de2022ull;

char residue(Xoshiro256& rng) {
  static const std::array<double, 20> cdf = [] {
    std::array<double, 20> c{};
    double acc = 0.0;
    for (std::size_t i = 0; i < kAaFreq.size(); ++i) {
      acc += kAaFreq[i].second;
      c[i] = acc;
    }
    c.back() = 1.0;
    return c;
  }();
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return kAaFreq[static_cast<std::size_t>(it - cdf.begin())].first;
}

std::string random_seq(Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = residue(rng);
  return s;
}

std::uint32_t draw_length(Xoshiro256& shape, double mean, std::uint32_t max) {
  constexpr double kShape = 2.2;  // the library generator's tail
  const double raw = shape.gamma(kShape, mean / kShape);
  return std::clamp(static_cast<std::uint32_t>(raw), 40u, max);
}

/// Point substitutions plus geometric indel bursts (the library
/// generator's mutation model). Where mutations fall is shape; which
/// residues they bring is seed. So whether, say, a query keeps enough of a
/// repeat to reach its carriers does not change from seed to seed.
std::string mutate(Xoshiro256& shape, Xoshiro256& rng, const std::string& anc,
                   double subst, double indel) {
  std::string out;
  out.reserve(anc.size() + 16);
  for (std::size_t i = 0; i < anc.size(); ++i) {
    if (shape.chance(indel)) {
      if (shape.chance(0.5)) {
        do {
          out.push_back(residue(rng));
        } while (shape.chance(0.4));
      } else {
        while (i + 1 < anc.size() && shape.chance(0.4)) ++i;
        continue;
      }
    }
    out.push_back(shape.chance(subst) ? residue(rng) : anc[i]);
  }
  if (out.empty()) out.push_back(residue(rng));
  return out;
}

/// Shape of one low-complexity insertion, all drawn from the shape stream.
struct RepeatShape {
  bool present = false;
  std::size_t motif = 0;
  std::uint32_t len = 0;
  double where = 0.0;  // insertion point as a fraction of the length
};

RepeatShape draw_repeat(Xoshiro256& shape, std::size_t n_motifs) {
  RepeatShape r;
  r.present = shape.chance(0.3);
  r.motif = shape.below(n_motifs);
  r.len = 15 + static_cast<std::uint32_t>(shape.below(16));
  r.where = shape.uniform();
  return r;
}

void insert_repeat(const RepeatShape& r, const std::vector<std::string>& motifs,
                   std::string& seq) {
  if (!r.present) return;
  std::string rep;
  while (rep.size() < r.len) rep += motifs[r.motif];
  rep.resize(r.len);
  const auto pos = static_cast<std::size_t>(
      r.where * static_cast<double>(seq.size() + 1));
  seq.insert(std::min(pos, seq.size()), rep);
}

}  // namespace

std::vector<std::string> metagenome(const MetagenomeShape& sh,
                                    std::uint64_t seed) {
  Xoshiro256 shape(mix64(kShapeSeed ^ mix64(sh.shape_salt)));
  Xoshiro256 rng(mix64(seed ^ mix64(sh.shape_salt + 1)));

  // Period-3 motifs: each repeat contributes 3 distinct 6-mers, enough to
  // clear the common-k-mer threshold between unrelated carriers. Motifs are
  // distinct up to rotation (rotations repeat into the same k-mers, which
  // would merge two carrier groups) and never a single repeated residue.
  std::vector<std::string> motifs;
  std::vector<std::string> rotations;
  while (motifs.size() < 16) {
    std::string m = random_seq(rng, 3);
    if (m[0] == m[1] && m[1] == m[2]) continue;
    const std::string r1 = m.substr(1) + m[0], r2 = m.substr(2) + m.substr(0, 2);
    if (std::find(rotations.begin(), rotations.end(), m) != rotations.end()) {
      continue;
    }
    rotations.insert(rotations.end(), {m, r1, r2});
    motifs.push_back(std::move(m));
  }

  std::vector<std::string> seqs;
  seqs.reserve(sh.n);
  const auto n_family = static_cast<std::uint32_t>(0.75 * sh.n);
  while (seqs.size() < n_family) {
    const std::uint64_t z = shape.zipf(sh.mean_family_size * 4ull, 1.1);
    const auto size = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        2, std::min<std::uint64_t>(z + 2, n_family - seqs.size())));
    const std::string ancestor =
        random_seq(rng, draw_length(shape, sh.mean_length, sh.max_length));
    for (std::uint32_t m = 0; m < size && seqs.size() < n_family; ++m) {
      std::string s =
          m == 0 ? ancestor : mutate(shape, rng, ancestor, 0.12, 0.015);
      const bool fragment = m != 0 && shape.chance(0.15);
      const double frac = 0.35 + 0.40 * shape.uniform();
      const double start = shape.uniform();
      if (fragment) {
        const auto win = std::max<std::size_t>(
            20, static_cast<std::size_t>(static_cast<double>(s.size()) * frac));
        if (win < s.size()) {
          const auto at = static_cast<std::size_t>(
              start * static_cast<double>(s.size() - win + 1));
          s = s.substr(std::min(at, s.size() - win), win);
        }
      }
      insert_repeat(draw_repeat(shape, motifs.size()), motifs, s);
      seqs.push_back(std::move(s));
    }
  }
  while (seqs.size() < sh.n) {
    std::string s =
        random_seq(rng, draw_length(shape, sh.mean_length, sh.max_length));
    insert_repeat(draw_repeat(shape, motifs.size()), motifs, s);
    seqs.push_back(std::move(s));
  }
  // Inputs are never family-sorted. The permutation is part of the shape,
  // so a position names the same family member under every seed.
  for (std::size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[shape.below(i)]);
  }
  return seqs;
}

ServeInputs serve_inputs(const ServeShape& sh, std::uint64_t seed) {
  ServeInputs in;
  MetagenomeShape ref_shape;
  ref_shape.n = sh.n_refs;
  ref_shape.mean_length = sh.mean_length;
  ref_shape.shape_salt = 101;
  in.refs = metagenome(ref_shape, seed);

  MetagenomeShape add_shape = ref_shape;
  add_shape.n = sh.n_adds * sh.add_size;
  add_shape.shape_salt = 202;
  const auto added = metagenome(add_shape, seed);
  for (std::uint32_t e = 0; e < sh.n_adds; ++e) {
    in.adds.emplace_back(added.begin() + e * sh.add_size,
                         added.begin() + (e + 1) * sh.add_size);
  }

  // Query pool: diverged copies of references (most), of references that
  // only arrive with a later add_references call, and unrelated decoys.
  Xoshiro256 shape(mix64(kShapeSeed ^ 303));
  Xoshiro256 rng(mix64(seed ^ 404));
  in.pool.reserve(sh.pool_size);
  for (std::uint32_t i = 0; i < sh.pool_size; ++i) {
    const double kind = shape.uniform();
    const std::uint64_t pick = shape();
    if (kind < 0.8) {
      in.pool.push_back(
          mutate(shape, rng, in.refs[pick % in.refs.size()], 0.15, 0.015));
    } else if (kind < 0.9) {
      in.pool.push_back(
          mutate(shape, rng, added[pick % added.size()], 0.15, 0.015));
    } else {
      in.pool.push_back(random_seq(
          rng, draw_length(shape, sh.mean_length, 2000)));
    }
  }

  // Zipf ranks map to pool entries through a fixed permutation, so the
  // popular head mixes all three kinds.
  std::vector<std::uint32_t> rank_to_pool(sh.pool_size);
  for (std::uint32_t i = 0; i < sh.pool_size; ++i) rank_to_pool[i] = i;
  for (std::size_t i = rank_to_pool.size(); i > 1; --i) {
    std::swap(rank_to_pool[i - 1], rank_to_pool[shape.below(i)]);
  }
  in.batches.resize(sh.n_batches);
  for (auto& b : in.batches) {
    for (std::uint32_t q = 0; q < sh.batch_size; ++q) {
      b.push_back(rank_to_pool[shape.zipf(sh.pool_size, sh.zipf_skew)]);
    }
  }
  const std::uint32_t every = sh.n_batches / (sh.n_adds + 1);
  for (std::uint32_t e = 0; e < sh.n_adds; ++e) {
    in.add_before.push_back(static_cast<std::size_t>(every) * (e + 1));
  }
  return in;
}

std::uint64_t digest(const std::vector<std::string>& seqs, std::uint64_t h) {
  for (const auto& s : seqs) h = digest_add(h, s);
  return mix64(h ^ seqs.size());
}

std::uint64_t digest(const ServeInputs& in) {
  std::uint64_t h = digest(in.refs);
  for (const auto& a : in.adds) h = digest(a, h);
  h = digest(in.pool, h);
  for (const auto& b : in.batches) {
    for (const auto q : b) h = mix64(h ^ q);
  }
  for (const auto a : in.add_before) h = mix64(h ^ a);
  return h;
}

}  // namespace perfbench
