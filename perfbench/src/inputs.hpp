// Seeded input generation for the perfbench workloads.
//
// The data follow bench::make_dataset's metagenome recipe (gamma lengths,
// Zipf-sized protein families of point-mutated and indel-mutated members,
// 15% fragments, 30% of sequences carrying a low-complexity repeat from a
// shared motif pool, shuffled order), with one change: the *shape* of a
// dataset — family sizes, sequence lengths, where mutations fall, which
// members are fragments and which carry a repeat, and the order — is drawn
// from a fixed stream, while `seed` drives the residues. Every seed therefore asks the
// program for about the same amount of work (the same families of the same
// lengths), so runs on different seeds compare like with like; with the
// library generator's seed-dependent shape, alignment cells alone moved 2x
// between seeds at the all-vs-all size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetagenomeShape {
  std::uint32_t n = 1000;
  double mean_length = 250.0;
  std::uint32_t max_length = 2000;
  std::uint32_t mean_family_size = 12;
  /// Distinguishes independent datasets of one run (e.g. references and
  /// additions); part of the fixed shape stream's seed.
  std::uint64_t shape_salt = 0;
};

/// A metagenome-like protein set (see header comment).
std::vector<std::string> metagenome(const MetagenomeShape& shape,
                                    std::uint64_t seed);

/// Inputs of the serve_mixed workload.
struct ServeInputs {
  std::vector<std::string> refs;               // the prebuilt index
  std::vector<std::vector<std::string>> adds;  // one per add_references call
  std::vector<std::string> pool;               // distinct queries
  /// Query stream: batches of pool indices, Zipf-skewed over the pool so
  /// popular queries repeat and reach the result cache.
  std::vector<std::vector<std::uint32_t>> batches;
  /// add_references(adds[e]) runs before batch add_before[e].
  std::vector<std::size_t> add_before;
};

struct ServeShape {
  std::uint32_t n_refs = 3000;
  double mean_length = 250.0;
  std::uint32_t n_adds = 4;
  std::uint32_t add_size = 45;
  std::uint32_t pool_size = 320;
  std::uint32_t n_batches = 60;
  std::uint32_t batch_size = 8;
  double zipf_skew = 1.1;
};

ServeInputs serve_inputs(const ServeShape& shape, std::uint64_t seed);

/// Order-sensitive digest of a sequence set.
std::uint64_t digest(const std::vector<std::string>& seqs,
                     std::uint64_t h = 0);
std::uint64_t digest(const ServeInputs& in);

}  // namespace perfbench
