#include "core/stages.hpp"

#include <algorithm>
#include <string>

#include "kmer/extract.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pastis::core {

namespace {

/// Adds one block/batch's cascade totals to the metrics registry:
/// cascade.tier{0,1}.{pairs_in,pairs_out,rejects}_total plus the measured
/// screen-cell totals. No-op without a metrics sink.
void add_cascade_counters(const obs::Telemetry& telemetry,
                          const align::CascadeStats& cs) {
  if (telemetry.metrics == nullptr) return;
  auto& m = *telemetry.metrics;
  const align::TierStats* tiers[2] = {&cs.tier0, &cs.tier1};
  for (int t = 0; t < 2; ++t) {
    const std::string base = "cascade.tier" + std::to_string(t);
    m.counter(base + ".pairs_in_total")
        .add(static_cast<double>(tiers[t]->pairs_in));
    m.counter(base + ".pairs_out_total")
        .add(static_cast<double>(tiers[t]->pairs_out));
    m.counter(base + ".rejects_total")
        .add(static_cast<double>(tiers[t]->rejects));
    m.counter(base + ".cells_total")
        .add(static_cast<double>(tiers[t]->cells));
  }
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> extract_sequence_kmers(
    std::string_view seq, sparse::Index row, const kmer::Alphabet& alphabet,
    const kmer::KmerCodec& codec, const kmer::NeighborGenerator& neighbors,
    int subs_kmers, std::vector<sparse::Triple<KmerPos>>& out) {
  const auto hits = kmer::extract_distinct_kmers(seq, alphabet, codec);
  out.reserve(out.size() +
              hits.size() * (1 + static_cast<std::size_t>(subs_kmers)));
  std::uint64_t n_subs = 0;
  for (const auto& h : hits) {
    out.push_back({row, static_cast<sparse::Index>(h.code), KmerPos{h.pos}});
    if (subs_kmers > 0) {
      for (const auto& nb :
           neighbors.nearest(h.code, static_cast<std::size_t>(subs_kmers))) {
        out.push_back(
            {row, static_cast<sparse::Index>(nb.code), KmerPos{h.pos}});
        ++n_subs;
      }
    }
  }
  return {hits.size(), n_subs};
}

align::BatchAligner make_batch_aligner(const PastisConfig& cfg,
                                       const sim::MachineModel& model) {
  align::BatchAligner::Config bcfg;
  bcfg.kind = cfg.align_kind;
  bcfg.devices = model.gpus_per_node;
  bcfg.cups_per_device = model.cups_per_gpu;
  bcfg.pack_seconds_per_pair = model.pack_s_per_pair;
  bcfg.band_half_width = cfg.band_half_width;
  bcfg.xdrop = cfg.xdrop;
  bcfg.seed_len = static_cast<std::uint32_t>(cfg.k);
  bcfg.telemetry = cfg.telemetry;
  return {cfg.make_scoring(), bcfg};
}

std::optional<io::SimilarityEdge> edge_if_similar(
    const align::AlignTask& task, const align::AlignResult& result,
    std::size_t len_q, std::size_t len_r, const PastisConfig& cfg) {
  const double ani = result.identity();
  const double cov = result.coverage(len_q, len_r);
  if (ani < cfg.ani_threshold || cov < cfg.cov_threshold) return std::nullopt;
  return io::SimilarityEdge{task.q_id, task.r_id, static_cast<float>(ani),
                            static_cast<float>(cov), result.score};
}

std::vector<align::CascadeStats> screen_candidates(
    std::span<std::vector<ScreenCandidate>> rank_cands,
    const align::BatchAligner::SeqAccessor& seq_of,
    const align::BatchAligner& aligner, const align::CascadeOptions& opt,
    util::ThreadPool* pool,
    std::span<std::vector<align::AlignTask>> rank_tasks) {
  const std::size_t np = rank_cands.size();
  std::vector<align::CascadeStats> rank_cs(np);
  const auto total_pairs = [&] {
    std::size_t n = 0;
    for (const auto& v : rank_cands) n += v.size();
    return static_cast<double>(n);
  };
  // Tier 1 probes every rank's candidates as one batch of lane groups
  // first; the per-rank pass then judges the probe results in order.
  std::vector<align::AlignTask> probe_tasks;
  std::vector<std::size_t> probe_offset;
  std::vector<align::AlignResult> probes;
  for (int tier = 0; tier < 2; ++tier) {
    if (!(tier == 0 ? opt.tier0_enabled : opt.tier1_enabled)) continue;
    obs::Span span(aligner.config().telemetry.tracer,
                   tier == 0 ? "cascade.tier0" : "cascade.tier1");
    span.arg("pairs_in", total_pairs());
    if (tier == 1) {
      probe_offset.assign(np + 1, 0);
      for (std::size_t ri = 0; ri < np; ++ri) {
        probe_offset[ri + 1] = probe_offset[ri] + rank_cands[ri].size();
        for (const auto& c : rank_cands[ri]) probe_tasks.push_back(c.task);
      }
      probes.resize(probe_tasks.size());
      align::LaneWorkspace ws;
      aligner.align_tasks(seq_of, probe_tasks, opt.tier1_kind, probes, pool,
                          ws);
    }
    util::for_each_index(pool, np, [&](std::size_t ri) {
      auto& v = rank_cands[ri];
      auto& cs = rank_cs[ri];
      std::size_t keep = 0;
      for (std::size_t k = 0; k < v.size(); ++k) {
        const auto& c = v[k];
        const std::string_view q = seq_of(c.task.q_id);
        const std::string_view r = seq_of(c.task.r_id);
        const bool pass =
            tier == 0
                ? align::tier0_keep(
                      q, r, {c.seeds, static_cast<std::size_t>(c.n_seeds)},
                      c.count, c.sketch_overlap, aligner, opt, cs.tier0)
                : align::tier1_judge(probes[probe_offset[ri] + k], q.size(),
                                     r.size(), opt, cs.tier1);
        if (pass) v[keep++] = c;
      }
      v.resize(keep);
    });
    span.arg("pairs_out", total_pairs());
  }
  for (std::size_t ri = 0; ri < np; ++ri) {
    auto& tasks = rank_tasks[ri];
    tasks.reserve(tasks.size() + rank_cands[ri].size());
    for (const auto& c : rank_cands[ri]) tasks.push_back(c.task);
  }
  if (opt.any()) {
    align::CascadeStats total;
    for (const auto& cs : rank_cs) total.merge(cs);
    add_cascade_counters(aligner.config().telemetry, total);
  }
  return rank_cs;
}

std::vector<align::BatchStats> align_and_filter(
    std::span<const std::vector<align::AlignTask>> rank_tasks,
    const align::BatchAligner::SeqAccessor& seq_of,
    const align::BatchAligner& aligner, const PastisConfig& cfg,
    util::ThreadPool* pool, AlignScratch& scratch,
    std::span<std::vector<io::SimilarityEdge>> rank_edges,
    std::span<const char> dead) {
  const std::size_t np = rank_tasks.size();
  scratch.rank_offset.assign(np + 1, 0);
  for (std::size_t ri = 0; ri < np; ++ri) {
    scratch.rank_offset[ri + 1] =
        scratch.rank_offset[ri] + rank_tasks[ri].size();
  }
  scratch.flat_tasks.clear();
  scratch.flat_tasks.reserve(scratch.rank_offset.back());
  for (const auto& v : rank_tasks) {
    scratch.flat_tasks.insert(scratch.flat_tasks.end(), v.begin(), v.end());
  }
  scratch.results.assign(scratch.flat_tasks.size(), align::AlignResult{});
  {
    const obs::Telemetry& telemetry = aligner.config().telemetry;
    obs::Span span(telemetry.tracer, "align.dp");
    const align::LaneStats lanes = aligner.align_tasks(
        seq_of, scratch.flat_tasks, aligner.config().kind, scratch.results,
        pool, scratch.lane_ws);
    if (telemetry.tracer != nullptr) {
      std::uint64_t cells = 0;
      for (const auto& r : scratch.results) cells += r.cells;
      span.arg("pairs", static_cast<double>(scratch.results.size()));
      span.arg("cells", static_cast<double>(cells));
      span.arg("lane_groups", static_cast<double>(lanes.groups));
    }
    if (telemetry.metrics != nullptr) {
      telemetry.metrics->counter("align.scalar_fallbacks_total")
          .add(static_cast<double>(lanes.scalar_fallbacks));
    }
  }

  // Per-rank filter and device accounting from each rank's own slice, so
  // the flattening is invisible to the modeled timings.
  if (scratch.lanes.size() != np) scratch.lanes.resize(np);
  std::vector<align::BatchStats> rank_stats(np);
  util::for_each_index(pool, np, [&](std::size_t ri) {
    if (!dead.empty() && dead[ri] != 0) return;
    const auto& tasks = rank_tasks[ri];
    const std::span<const align::AlignResult> results(
        scratch.results.data() + scratch.rank_offset[ri], tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (auto edge = edge_if_similar(tasks[t], results[t],
                                      seq_of(tasks[t].q_id).size(),
                                      seq_of(tasks[t].r_id).size(), cfg)) {
        rank_edges[ri].push_back(*edge);
      }
    }
    rank_stats[ri] =
        aligner.stats_for(seq_of, tasks, results, scratch.lanes[ri]);
  });
  return rank_stats;
}

std::pair<double, double> modeled_screen_seconds(
    const sim::MachineModel& model, const align::CascadeStats& cs) {
  return {model.sparse_stream_time(cs.tier0.cells * 4),
          balanced_kernel_seconds(model, cs.tier1.cells)};
}

double balanced_kernel_seconds(const sim::MachineModel& model,
                               std::uint64_t cells) {
  // Device lanes are modeled as balanced: a production-scale batch puts
  // millions of pairs on each GPU, so per-device imbalance vanishes
  // (rank-level imbalance — the kind the paper reports — remains).
  return static_cast<double>(cells) /
         (model.cups_per_gpu *
          static_cast<double>(std::max(1, model.gpus_per_node)));
}

double modeled_align_seconds(const sim::MachineModel& model,
                             const align::BatchStats& bstats, std::size_t pairs,
                             double dilation) {
  const std::uint64_t launches =
      pairs == 0 ? 0
                 : (pairs + model.pairs_per_launch - 1) / model.pairs_per_launch;
  return (balanced_kernel_seconds(model, bstats.cells) +
          static_cast<double>(launches) * model.kernel_launch_s +
          static_cast<double>(pairs) * model.pack_s_per_pair) *
         dilation;
}

}  // namespace pastis::core
