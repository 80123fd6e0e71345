// Reusable stages of the discovery → alignment → filter flow.
//
// Two consumers run the flow end to end: the many-against-many pipeline
// (core/pipeline.cpp, paper Fig. 4) and the query-serving engine
// (index/query_engine.cpp, the §III annotation use case). Both stage every
// extracted candidate as a ScreenCandidate and then call the same two
// functions, which are the one place either of them drives the DP kernel:
//
//   screen_candidates  cascade tiers 0 and 1 over per-rank candidate lists
//                      (a pass-through when no tier is enabled);
//   align_and_filter   the flattened DP batch on the host pool, the
//                      ANI/coverage filter and per-rank device accounting.
//
// Modeled charging stays with each caller, because the overlap dilations
// and the distributed charging rules differ; the callers read the per-rank
// CascadeStats / BatchStats these functions return. The replicated-index
// baseline (baseline/replicated_index.cpp) uses the leaf helpers per chunk.
// Writing the stage logic once keeps all consumers bit-identical by
// construction — the canonical task orientation, the tier screens, the
// ANI/coverage filter and the modeled device-time formula exist once.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "io/graph_io.hpp"
#include "kmer/codec.hpp"
#include "kmer/nearest.hpp"
#include "sim/machine_model.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/triple.hpp"

namespace pastis::core {

/// One sequence's k-mer-matrix nonzeros (Fig. 1 left): distinct k-mers at
/// their first occurrence, plus the m nearest substitute neighbours when
/// enabled (§V). Appends triples (row, k-mer code, position) to `out` and
/// returns the {exact, substitute} hit counts. Every producer of a
/// sequence-by-k-mer matrix — the pipeline's A, the index's Aᵀ_ref shards,
/// the engine's per-batch A_query — MUST go through this function: the
/// serving layer's bit-identity to the pipeline rests on the three sides
/// extracting identically.
std::pair<std::uint64_t, std::uint64_t> extract_sequence_kmers(
    std::string_view seq, sparse::Index row, const kmer::Alphabet& alphabet,
    const kmer::KmerCodec& codec, const kmer::NeighborGenerator& neighbors,
    int subs_kmers, std::vector<sparse::Triple<KmerPos>>& out);

/// The commutative combine for duplicate (sequence, k-mer) entries (an
/// exact k-mer colliding with a substitute, or two substitutes): keep the
/// smallest position. Order-independence preserves determinism.
inline void keep_min_pos(KmerPos& acc, const KmerPos& v) {
  if (v.pos < acc.pos) acc = v;
}

/// Canonical alignment task for the candidate at overlap-matrix element
/// (i, j): the alignment query is always the smaller sequence id, and the
/// seed pair follows the element's orientation. Keeping this in one place
/// is what makes alignment results identical across schemes, blockings and
/// serving paths (pipeline header comment; paper's reproducibility claim).
[[nodiscard]] inline align::AlignTask canonical_task(sparse::Index i,
                                                     sparse::Index j,
                                                     const CommonKmers& ck) {
  align::AlignTask t;
  if (i < j) {
    t.q_id = i;
    t.r_id = j;
    t.seed_q = ck.first.pos_a;
    t.seed_r = ck.first.pos_b;
  } else {
    t.q_id = j;
    t.r_id = i;
    t.seed_q = ck.first.pos_b;
    t.seed_r = ck.first.pos_a;
  }
  return t;
}

/// The up-to-two seed pairs the overlap semiring carries for element
/// (i, j) — CommonKmers::first/last, the lexicographic min and max —
/// rewritten into the canonical task orientation (query = smaller id, the
/// same rule as canonical_task). Returns the number of distinct seeds
/// written to `out` (1 when first == last). These are the seeds the
/// cascade's tier-0 diagonal-bucketed ungapped extension screens over.
[[nodiscard]] inline int canonical_seeds(sparse::Index i, sparse::Index j,
                                         const CommonKmers& ck,
                                         align::Seed out[2]) {
  const bool fwd = i < j;
  out[0] = fwd ? align::Seed{ck.first.pos_a, ck.first.pos_b}
               : align::Seed{ck.first.pos_b, ck.first.pos_a};
  if (ck.last.pos_a == ck.first.pos_a && ck.last.pos_b == ck.first.pos_b) {
    return 1;
  }
  out[1] = fwd ? align::Seed{ck.last.pos_a, ck.last.pos_b}
               : align::Seed{ck.last.pos_b, ck.last.pos_a};
  return 2;
}

/// One extracted candidate staged for screen_candidates. The {discover,
/// screen, align} stage graphs (pipeline blocks, serving batches) keep
/// per-slot vectors of these between the extraction pass and the tier
/// passes, so each tier runs as its own traced pass and tier-k of item b
/// can overlap tier-(k+1) of item b-1 on the streaming executor.
struct ScreenCandidate {
  align::AlignTask task;
  std::uint32_t count = 0;        // shared-k-mer count of the pair
  int n_seeds = 0;                // valid entries in `seeds`
  align::Seed seeds[2];           // canonical-orientation min/max seeds
  int sketch_overlap = -1;        // minhash slot agreement; -1 = no sketch
};

/// The screen stage over one block/batch. `rank_cands` holds each rank's
/// staged candidates. Every enabled tier runs as one pass, traced as a
/// `cascade.tier<t>` span on the aligner's tracer, that compacts each
/// rank's list in place (ranks in parallel on `pool`, serially when it is
/// null); tier 1 first probes all ranks' candidates as one batch of lane
/// groups. The survivors' tasks are then appended, in order, to
/// `rank_tasks`. Returns each rank's CascadeStats; with any tier enabled,
/// their total is also added to the `cascade.tier{0,1}.*_total` counters.
/// With no tier enabled every task passes through unchanged.
[[nodiscard]] std::vector<align::CascadeStats> screen_candidates(
    std::span<std::vector<ScreenCandidate>> rank_cands,
    const align::BatchAligner::SeqAccessor& seq_of,
    const align::BatchAligner& aligner, const align::CascadeOptions& opt,
    util::ThreadPool* pool,
    std::span<std::vector<align::AlignTask>> rank_tasks);

/// Reusable buffers of align_and_filter for one executor slot; capacity is
/// kept across the items the slot serves.
struct AlignScratch {
  std::vector<align::AlignTask> flat_tasks;
  std::vector<std::size_t> rank_offset;
  std::vector<align::AlignResult> results;
  std::vector<align::LaneScratch> lanes;  // per rank
  align::LaneWorkspace lane_ws;
};

/// The align stage over one block/batch. Flattens every rank's tasks and
/// aligns them as lane groups (BatchAligner::align_tasks) on `pool`
/// (serially when it is null), so a skewed rank does not idle host cores;
/// that pass is one measured `align.dp` span, and with metrics on it adds
/// its saturation re-runs to `align.scalar_fallbacks_total`. Then, per
/// rank, appends the pairs that pass the
/// ANI/coverage filter to `rank_edges[r]` and returns the rank's device
/// accounting (BatchAligner::stats_for). Ranks with `dead[r] != 0` get no
/// edges and zero stats; an empty `dead` means every rank is alive.
[[nodiscard]] std::vector<align::BatchStats> align_and_filter(
    std::span<const std::vector<align::AlignTask>> rank_tasks,
    const align::BatchAligner::SeqAccessor& seq_of,
    const align::BatchAligner& aligner, const PastisConfig& cfg,
    util::ThreadPool* pool, AlignScratch& scratch,
    std::span<std::vector<io::SimilarityEdge>> rank_edges,
    std::span<const char> dead = {});

/// Modeled seconds of the cascade screens over one block/batch: tier 0 is a
/// host-side streaming scan over its diagonal cells (charged like the other
/// sparse extraction passes, 4 bytes per scanned cell: two residue loads
/// plus the score-table lookup), tier 1 is DP work on the node's balanced
/// accelerators. Returns {tier0_seconds, tier1_seconds}; callers charge
/// them to Comp::kSparseOther and Comp::kAlign respectively so the
/// simulated grid sees both the screen cost and the tier-2 work reduction.
[[nodiscard]] std::pair<double, double> modeled_screen_seconds(
    const sim::MachineModel& model, const align::CascadeStats& cs);

/// The ADEPT device aligner configured from the search parameters and the
/// machine's accelerator constants (one construction for both consumers).
[[nodiscard]] align::BatchAligner make_batch_aligner(
    const PastisConfig& cfg, const sim::MachineModel& model);

/// Local candidate-discovery SpGEMM: the two-phase kernel on `pool`,
/// instrumented with the config's telemetry. Every local discovery
/// multiply — the engine's shard products, the baselines, ad-hoc tools —
/// goes through here so all of them record the same SpGEMM metrics.
template <sparse::SemiringLike SR>
[[nodiscard]] sparse::SpMat<typename SR::value_type> discovery_spgemm(
    const sparse::SpMat<typename SR::left_type>& a,
    const sparse::SpMat<typename SR::right_type>& b, const PastisConfig& cfg,
    sparse::SpGemmStats* stats = nullptr, util::ThreadPool* pool = nullptr) {
  return sparse::spgemm_hash2p<SR>(a, b, stats, pool, cfg.telemetry);
}

/// The similarity edge for an aligned pair, or nullopt if it fails the
/// ANI/coverage thresholds (Table IV: 0.30 / 0.70).
[[nodiscard]] std::optional<io::SimilarityEdge> edge_if_similar(
    const align::AlignTask& task, const align::AlignResult& result,
    std::size_t len_q, std::size_t len_r, const PastisConfig& cfg);

/// Pure device-kernel seconds for `cells` DP updates spread over the node's
/// balanced accelerators — the CUPS denominator (§VII).
[[nodiscard]] double balanced_kernel_seconds(const sim::MachineModel& model,
                                             std::uint64_t cells);

/// Modeled device seconds for a batch of `pairs` alignments whose DP work
/// is `bstats` — kernel time on balanced devices, per-launch latency and
/// host packing, dilated by `dilation` (the §VI-C pre-blocking contention).
[[nodiscard]] double modeled_align_seconds(const sim::MachineModel& model,
                                           const align::BatchStats& bstats,
                                           std::size_t pairs, double dilation);

}  // namespace pastis::core
