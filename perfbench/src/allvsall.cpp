// allvsall_align and allvsall_sensitive: SimilaritySearch::run on a
// metagenome-like set, 2x2 blocking, pipeline depth 2, 4 simulated ranks.
//
// Untraced run: set-up repetitions, one warm-up search, then searches for
// the requested seconds; afterwards (untimed) the output checks. Traced
// run: half the time on untraced searches (the residual's baseline), half
// on layer-by-layer re-drives of the same work through the layers' public
// functions with a span around each call.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "inputs.hpp"
#include "oracle.hpp"
#include "pastis.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pastis;
using sparse::Index;

struct Spec {
  const char* name;
  MetagenomeShape shape;
  int subs_kmers = 0;
  bool cascade = false;
  /// Fraction of discovered candidate pairs re-checked by the oracle.
  double sample_fraction = 0.0;
  /// Check every reported edge with the oracle.
  bool oracle_all_edges = false;
};

constexpr int kRanks = 4;    // simulated ranks: a 2 x 2 process grid
constexpr int kBlocks = 2;   // 2 x 2 output blocking
// Set-up repetitions: at least kMinSetupReps, more while they stay cheap.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 21;
constexpr double kSetupBudgetS = 2.0;

Spec align_spec() {
  Spec s;
  s.name = "allvsall_align";
  s.shape.n = 600;
  s.shape.mean_length = 250.0;
  s.shape.shape_salt = 1;
  s.sample_fraction = 0.03;
  return s;
}

Spec sensitive_spec() {
  Spec s;
  s.name = "allvsall_sensitive";
  s.shape.n = 2000;
  s.shape.mean_length = 80.0;
  s.shape.shape_salt = 2;
  s.subs_kmers = 8;
  s.cascade = true;
  s.sample_fraction = 0.05;
  s.oracle_all_edges = true;
  return s;
}

core::PastisConfig make_config(const Spec& s) {
  core::PastisConfig cfg;  // Table-IV defaults: k=6, BLOSUM62 11/2, ckt 2
  cfg.block_rows = cfg.block_cols = kBlocks;
  cfg.pipeline_depth = 2;
  cfg.subs_kmers = s.subs_kmers;
  if (s.cascade) cfg.cascade = align::CascadeOptions::fast();
  return cfg;
}

/// Work counts of one layer-by-layer re-drive.
struct Counts {
  std::uint64_t kmer_nnz = 0, products = 0, out_nnz = 0, candidates = 0;
  align::CascadeStats cascade;
  std::uint64_t align_pairs = 0, align_cells = 0, edges = 0;
};

struct Redrive {
  std::vector<io::SimilarityEdge> edges;
  std::vector<align::AlignTask> candidates;  // before the screens
  Counts counts;
};

/// One cascade tier over the staged candidates, chunked over the pool;
/// survivors keep their order.
template <typename Keep>
void screen_pass(std::vector<core::ScreenCandidate>& cands,
                 util::ThreadPool& pool, align::TierStats& total, Keep keep) {
  const std::size_t chunks = std::min<std::size_t>(cands.size(), 256);
  if (chunks == 0) return;
  std::vector<align::TierStats> stats(chunks);
  std::vector<std::uint8_t> pass(cands.size(), 0);
  pool.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t b = cands.size() * c / chunks;
    const std::size_t e = cands.size() * (c + 1) / chunks;
    for (std::size_t i = b; i < e; ++i) pass[i] = keep(cands[i], stats[c]) ? 1 : 0;
  });
  std::size_t w = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (pass[i] != 0) cands[w++] = cands[i];
  }
  cands.resize(w);
  for (const auto& s : stats) total.merge(s);
}

/// The search's work, layer by layer, through the same public functions the
/// pipeline calls and at the same blocking — without the simulated ranks,
/// the streaming executor or the modeled accounting. Each call is a span of
/// request `request` when the tracer is on.
Redrive redrive(const std::vector<std::string>& seqs,
                const core::PastisConfig& cfg, const sim::MachineModel& model,
                util::ThreadPool& pool, Tracer& tr, std::uint64_t request) {
  Redrive out;
  auto search_span = tr.span("allvsall.search", request);
  const auto n = static_cast<Index>(seqs.size());
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const auto ncols = static_cast<Index>(codec.space());

  std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_seq(n);
  {
    auto s = tr.span("kmer.extract", request);
    const kmer::NeighborGenerator neighbors(alphabet, codec, cfg.make_scoring(),
                                            cfg.subs_max_loss);
    pool.parallel_for(n, [&](std::size_t i) {
      (void)core::extract_sequence_kmers(seqs[i], static_cast<Index>(i),
                                         alphabet, codec, neighbors,
                                         cfg.subs_kmers, per_seq[i]);
    });
  }
  sparse::SpMat<core::KmerPos> a;
  {
    auto s = tr.span("sparse.assemble", request);
    std::vector<sparse::Triple<core::KmerPos>> triples;
    std::size_t total = 0;
    for (const auto& v : per_seq) total += v.size();
    triples.reserve(total);
    for (auto& v : per_seq) {
      triples.insert(triples.end(), v.begin(), v.end());
      std::vector<sparse::Triple<core::KmerPos>>().swap(v);
    }
    a = sparse::SpMat<core::KmerPos>::from_triples(
        n, ncols, std::move(triples),
        [](core::KmerPos& acc, const core::KmerPos& v) {
          core::keep_min_pos(acc, v);
        });
  }
  out.counts.kmer_nnz = a.nnz();
  sparse::SpMat<core::KmerPos> b;
  {
    auto s = tr.span("sparse.transpose", request);
    b = a.transposed();
  }

  const core::BlockPlan plan(n, kBlocks, kBlocks, cfg.load_balance);
  std::map<int, sparse::SpMat<core::KmerPos>> row_stripe, col_stripe;
  {
    auto s = tr.span("sparse.split", request);
    for (const auto& blk : plan.blocks()) {
      if (row_stripe.count(blk.r) == 0) {
        row_stripe[blk.r] = a.extract(blk.row0, blk.row1, 0, ncols);
      }
      if (col_stripe.count(blk.c) == 0) {
        col_stripe[blk.c] = b.extract(0, ncols, blk.col0, blk.col1);
      }
    }
  }

  const align::BatchAligner aligner = core::make_batch_aligner(cfg, model);
  const align::BatchAligner::SeqAccessor seq_of =
      [&](std::uint32_t id) -> std::string_view { return seqs[id]; };
  std::vector<core::ScreenCandidate> cands;
  std::vector<align::AlignTask> tasks;
  std::vector<align::AlignResult> results;
  for (const auto& blk : plan.blocks()) {
    sparse::SpMat<core::CommonKmers> c;
    {
      auto s = tr.span("sparse.spgemm", request);
      sparse::SpGemmStats st;
      c = core::discovery_spgemm<core::OverlapSemiring>(
          row_stripe[blk.r], col_stripe[blk.c], cfg, &st, &pool);
      out.counts.products += st.products;
      out.counts.out_nnz += c.nnz();
    }
    {
      auto s = tr.span("core.candidates", request);
      cands.clear();
      c.for_each([&](Index li, Index lj, const core::CommonKmers& ck) {
        const Index i = blk.row0 + li;
        const Index j = blk.col0 + lj;
        if (ck.count < cfg.common_kmer_threshold) return;
        if (!plan.should_align(blk, i, j)) return;
        core::ScreenCandidate cand;
        cand.task = core::canonical_task(i, j, ck);
        cand.count = ck.count;
        cand.n_seeds = core::canonical_seeds(i, j, ck, cand.seeds);
        cands.push_back(cand);
      });
      for (const auto& cand : cands) out.candidates.push_back(cand.task);
      out.counts.candidates += cands.size();
    }
    if (cfg.cascade.tier0_enabled) {
      auto s = tr.span("cascade.tier0", request);
      screen_pass(cands, pool, out.counts.cascade.tier0,
                  [&](const core::ScreenCandidate& cand, align::TierStats& ts) {
                    return align::tier0_keep(
                        seqs[cand.task.q_id], seqs[cand.task.r_id],
                        {cand.seeds, static_cast<std::size_t>(cand.n_seeds)},
                        cand.count, cand.sketch_overlap, aligner, cfg.cascade,
                        ts);
                  });
    }
    if (cfg.cascade.tier1_enabled) {
      auto s = tr.span("cascade.tier1", request);
      screen_pass(cands, pool, out.counts.cascade.tier1,
                  [&](const core::ScreenCandidate& cand, align::TierStats& ts) {
                    return align::tier1_keep(seqs[cand.task.q_id],
                                             seqs[cand.task.r_id], cand.task,
                                             aligner, cfg.cascade, ts);
                  });
    }
    tasks.clear();
    for (const auto& cand : cands) tasks.push_back(cand.task);
    {
      auto s = tr.span("align.dp", request);
      results.assign(tasks.size(), align::AlignResult{});
      pool.parallel_for(tasks.size(), [&](std::size_t t) {
        results[t] = aligner.align_one_task(seq_of, tasks[t]);
      });
    }
    out.counts.align_pairs += tasks.size();
    for (const auto& r : results) out.counts.align_cells += r.cells;
    {
      auto s = tr.span("core.filter", request);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (auto e = core::edge_if_similar(tasks[t], results[t],
                                           seqs[tasks[t].q_id].size(),
                                           seqs[tasks[t].r_id].size(), cfg)) {
          out.edges.push_back(*e);
        }
      }
    }
  }
  {
    auto s = tr.span("core.filter", request);
    io::sort_edges(out.edges);
  }
  out.counts.edges = out.edges.size();
  return out;
}

std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Output checks, outside the timed region. Returns the sampled recall and
/// its sample size (oracle-positive sampled pairs).
std::pair<double, std::uint64_t> check_outputs(
    const Spec& spec, const std::vector<std::string>& seqs,
    const core::PastisConfig& cfg, const core::SearchResult& search,
    const Redrive& rd, util::ThreadPool& pool, std::uint64_t seed,
    Report& rep) {
  // (1) The pipeline and the layer-by-layer re-drive agree exactly.
  if (search.edges != rd.edges) {
    rep.fail("pipeline edge set (" + std::to_string(search.edges.size()) +
             " edges) differs from the layer-by-layer edge set (" +
             std::to_string(rd.edges.size()) + ")");
  }
  const auto& st = search.stats;
  if (st.candidates != rd.counts.out_nnz ||
      st.aligned_pairs != rd.counts.align_pairs ||
      st.align_cells != rd.counts.align_cells ||
      st.cascade.tier0.pairs_out != rd.counts.cascade.tier0.pairs_out ||
      st.cascade.tier1.pairs_out != rd.counts.cascade.tier1.pairs_out) {
    rep.fail("pipeline work counters differ from the layer-by-layer counts");
  }

  // (2) A deterministic sample of candidate pairs, re-checked by the
  // benchmark's own full-SW oracle plus the ANI/coverage filter.
  std::unordered_map<std::uint64_t, const io::SimilarityEdge*> reported;
  for (const auto& e : search.edges) reported[edge_key(e.seq_a, e.seq_b)] = &e;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sample;
  for (const auto& t : rd.candidates) {
    if (sampled(t.q_id, t.r_id, seed, spec.sample_fraction)) {
      sample.emplace_back(t.q_id, t.r_id);
    }
  }
  const align::Scoring scoring = cfg.make_scoring();
  std::vector<std::optional<io::SimilarityEdge>> expect(sample.size());
  pool.parallel_for(sample.size(), [&](std::size_t k) {
    const auto [q, r] = sample[k];
    expect[k] = oracle_edge(q, r, seqs[q], seqs[r], scoring,
                            cfg.ani_threshold, cfg.cov_threshold);
  });
  std::uint64_t positives = 0, found = 0, wrong = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const auto it = reported.find(edge_key(sample[k].first, sample[k].second));
    const bool is_reported = it != reported.end();
    if (expect[k]) {
      ++positives;
      if (is_reported) {
        ++found;
        if (!(*it->second == *expect[k])) ++wrong;
      } else if (!spec.cascade) {
        ++wrong;  // the exact configuration must report every oracle edge
      }
    } else if (is_reported) {
      ++wrong;
    }
  }
  if (wrong > 0) {
    rep.fail(std::to_string(wrong) + " of " + std::to_string(sample.size()) +
             " sampled candidate pairs disagree with the full-SW oracle");
  }

  // (3) In the approximate configuration, every reported edge must pass the
  // oracle with identical fields (the exact one is covered by the sample).
  std::vector<const io::SimilarityEdge*> to_check;
  if (spec.oracle_all_edges) {
    for (const auto& e : search.edges) to_check.push_back(&e);
  }
  std::vector<std::uint8_t> ok(to_check.size(), 0);
  pool.parallel_for(to_check.size(), [&](std::size_t k) {
    const auto& e = *to_check[k];
    const auto want = oracle_edge(e.seq_a, e.seq_b, seqs[e.seq_a],
                                  seqs[e.seq_b], scoring, cfg.ani_threshold,
                                  cfg.cov_threshold);
    ok[k] = want && *want == e ? 1 : 0;
  });
  const auto bad = static_cast<std::uint64_t>(
      std::count(ok.begin(), ok.end(), std::uint8_t{0}));
  if (bad > 0) {
    rep.fail(std::to_string(bad) + " of " + std::to_string(to_check.size()) +
             " reported edges fail the full-SW oracle");
  }
  rep.note("check.sampled_pairs", static_cast<double>(sample.size()), "count");
  rep.note("check.oracle_edges_checked", static_cast<double>(to_check.size()),
           "count");
  const double recall =
      positives == 0 ? 1.0
                     : static_cast<double>(found) / static_cast<double>(positives);
  return {recall, positives};
}

Report run_allvsall(const Spec& spec, const RunOptions& opt,
                    util::ThreadPool& pool) {
  Report rep;
  rep.workload = spec.name;
  rep.seed = opt.seed;
  rep.trace = opt.trace;
  const auto seqs = metagenome(spec.shape, opt.seed);
  rep.text.emplace_back("input_digest", hex64(digest(seqs)));
  std::uint64_t residues = 0;
  for (const auto& s : seqs) residues += s.size();
  rep.note("input.sequences", static_cast<double>(seqs.size()), "count");
  rep.note("input.residues", static_cast<double>(residues), "count");

  const core::PastisConfig cfg = make_config(spec);
  const sim::MachineModel model{};

  // ---- set-up: the pipeline's setup stage (A, Aᵀ, stripe splits) --------
  std::vector<Sample> setup;
  const double setup0 = now_s();
  while (setup.size() < kMinSetupReps ||
         (setup.size() < kMaxSetupReps && now_s() - setup0 < kSetupBudgetS)) {
    const Stopwatch sw;
    {
      sim::SimRuntime rt(kRanks, model, &pool);
      const core::DistSeqStore store(seqs, kRanks);
      auto a = core::build_kmer_matrix(rt, store, cfg, nullptr, &pool);
      auto b = a.transposed(&pool);
      auto sa = dist::split_row_stripes(rt, a, kBlocks, &pool);
      auto sb = dist::split_col_stripes(rt, b, kBlocks, &pool);
    }
    setup.push_back(sw.read());
  }

  // ---- warm-up, then the timed searches -----------------------------------
  const core::SimilaritySearch search(cfg, model, kRanks, &pool);
  core::SearchResult first;
  ++rep.attempted;
  try {
    first = search.run(seqs);
  } catch (const std::exception& e) {
    rep.fail(std::string("warm-up search threw: ") + e.what());
    return rep;
  }
  MeasureLoop loop(opt.trace ? 0.5 * opt.seconds : opt.seconds, 3);
  while (loop.more()) {
    ++rep.attempted;
    const Stopwatch sw;
    core::SearchResult r;
    try {
      r = search.run(seqs);
    } catch (const std::exception& e) {
      rep.fail(std::string("search threw: ") + e.what());
      return rep;
    }
    loop.add(sw.read());
    if (r.edges != first.edges) {
      rep.fail("search " + std::to_string(loop.samples().size()) +
               " returned a different edge set than the warm-up search");
    }
  }
  const double rss = peak_rss_mb();
  std::vector<double> walls, cpus;
  for (const auto i : loop.usable()) {
    walls.push_back(loop.samples()[i].wall_s);
    cpus.push_back(loop.samples()[i].cpu_s);
  }
  const double search_s = median(walls);

  // ---- layer-by-layer re-drive: checks, and the traced run's spans --------
  Tracer tr(opt.trace);
  std::vector<Redrive> drives;
  std::vector<std::map<std::string, double>> layer_s;
  std::vector<double> drive_cover;
  MeasureLoop drive_loop(0.5 * opt.seconds, 1);
  static const char* const kLayers[] = {
      "kmer.extract",  "sparse.assemble", "sparse.transpose",
      "sparse.split",  "sparse.spgemm",   "core.candidates",
      "cascade.tier0", "cascade.tier1",   "align.dp",
      "core.filter"};
  do {
    const double since = tr.clock();
    const Stopwatch sw;
    try {
      drives.push_back(redrive(seqs, cfg, model, pool, tr, drives.size() + 1));
    } catch (const std::exception& e) {
      rep.fail(std::string("layer-by-layer re-drive threw: ") + e.what());
      return rep;
    }
    drive_loop.add(sw.read());
    drive_cover.push_back(tr.leaf_total(since) / drive_loop.samples().back().wall_s);
    std::map<std::string, double> ls;
    for (const char* l : kLayers) ls[l] = tr.total(l, since);
    layer_s.push_back(std::move(ls));
  } while (opt.trace && drive_loop.more());

  const auto [recall, positives] =
      check_outputs(spec, seqs, cfg, first, drives.front(), pool, opt.seed, rep);
  const Counts& cnt = drives.front().counts;

  rep.note("search.count", static_cast<double>(loop.samples().size()), "count");
  rep.note("search.used", static_cast<double>(walls.size()), "count");
  rep.note("host.steal_share", steal_share(loop.samples()), "ratio");
  rep.note("search.edges", static_cast<double>(first.edges.size()), "count");
  rep.note("search.aligned_pairs",
           static_cast<double>(first.stats.aligned_pairs), "count");
  rep.note("search.align_cells", static_cast<double>(first.stats.align_cells),
           "count");
  rep.note("recall.sample_positives", static_cast<double>(positives), "count");
  // Modeled Summit-scale seconds, for the record only: never a metric.
  rep.note("modeled.t_total_s", first.stats.t_total, "s");
  rep.note("modeled.t_blocks_s", first.stats.t_blocks, "s");

  if (!opt.trace) {
    // Set-up is reported in process CPU seconds: a few tens of milliseconds
    // of short parallel passes, whose wall time swung 35% with host steal
    // between two sets of runs of the same code; the work moved into set-up
    // shows in CPU time all the same.
    std::vector<double> setup_cpu, setup_wall;
    for (const auto i : usable(setup, kMinSetupReps)) {
      setup_cpu.push_back(setup[i].cpu_s);
      setup_wall.push_back(setup[i].wall_s);
    }
    rep.note("setup.wall_s", median(setup_wall), "s");
    rep.metric("setup_s", median(setup_cpu), "s");
    rep.metric("search_s", search_s, "s");
    rep.metric("cpu_s", median(cpus), "s");
    rep.metric("peak_rss_mb", rss, "MB");
    rep.metric("recall", recall, "ratio");
    rep.metric("queries_per_s", static_cast<double>(seqs.size()) / search_s,
               "queries/s");
    rep.metric("batch_p50_ms", 1e3 * search_s, "ms");
    rep.metric("batch_p90_ms", 1e3 * quantile(walls, 0.9), "ms");
    return rep;
  }

  // ---- per-layer metrics (medians over the traced re-drives) --------------
  const auto used = drive_loop.usable();
  auto layer = [&](const char* name) {
    std::vector<double> v;
    for (const auto i : used) v.push_back(layer_s[i].at(name));
    return median(v);
  };
  std::vector<double> span_sums, drive_wall;
  for (const auto i : used) {
    double s = 0.0;
    for (const auto& [name, t] : layer_s[i]) s += t;
    span_sums.push_back(s);
    drive_wall.push_back(drive_loop.samples()[i].wall_s);
  }
  const double cover = *std::min_element(drive_cover.begin(), drive_cover.end());
  if (cover < 0.9) {
    rep.fail("layer spans cover only " + std::to_string(cover) +
             " of the traced wall time (need >= 0.9)");
  }
  const double dp_s = layer("align.dp");
  const double spgemm_s = layer("sparse.spgemm");
  rep.metric("kmer.extract_s", layer("kmer.extract"), "s");
  rep.metric("kmer.nnz", static_cast<double>(cnt.kmer_nnz), "count");
  rep.metric("sparse.assemble_s", layer("sparse.assemble"), "s");
  rep.metric("sparse.transpose_s", layer("sparse.transpose"), "s");
  rep.metric("sparse.split_s", layer("sparse.split"), "s");
  rep.metric("sparse.spgemm_s", spgemm_s, "s");
  rep.metric("sparse.products", static_cast<double>(cnt.products), "count");
  rep.metric("sparse.out_nnz", static_cast<double>(cnt.out_nnz), "count");
  rep.metric("sparse.products_per_s",
             spgemm_s > 0 ? static_cast<double>(cnt.products) / spgemm_s : 0.0,
             "1/s");
  rep.metric("cascade.tier0_s", layer("cascade.tier0"), "s");
  rep.metric("cascade.tier1_s", layer("cascade.tier1"), "s");
  rep.metric("cascade.tier0_pairs_in",
             static_cast<double>(cnt.cascade.tier0.pairs_in), "count");
  rep.metric("cascade.tier0_pairs_out",
             static_cast<double>(cnt.cascade.tier0.pairs_out), "count");
  rep.metric("cascade.tier1_pairs_out",
             static_cast<double>(cnt.cascade.tier1.pairs_out), "count");
  rep.metric("cascade.tier1_cells",
             static_cast<double>(cnt.cascade.tier1.cells), "count");
  rep.metric("align.dp_s", dp_s, "s");
  rep.metric("align.pairs", static_cast<double>(cnt.align_pairs), "count");
  rep.metric("align.cells", static_cast<double>(cnt.align_cells), "count");
  rep.metric("align.mcups",
             dp_s > 0 ? static_cast<double>(cnt.align_cells) / dp_s / 1e6 : 0.0,
             "Mcells/s");
  rep.metric("core.candidates_s", layer("core.candidates"), "s");
  rep.metric("core.candidates", static_cast<double>(cnt.candidates), "count");
  rep.metric("core.filter_s", layer("core.filter"), "s");
  rep.metric("core.edges", static_cast<double>(cnt.edges), "count");
  rep.metric("core.edge_yield",
             cnt.align_pairs > 0 ? static_cast<double>(cnt.edges) /
                                       static_cast<double>(cnt.align_pairs)
                                 : 0.0,
             "ratio");
  rep.metric("pipeline.residual_s", search_s - median(span_sums), "s");
  rep.metric("trace.overhead_s", median(drive_wall) - search_s, "s");
  rep.metric("trace.coverage", cover, "ratio");
  if (!opt.trace_out.empty() && !tr.write_chrome(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 opt.trace_out.c_str());
  }
  return rep;
}

}  // namespace

Report run_allvsall_align(const RunOptions& opt, util::ThreadPool& pool) {
  return run_allvsall(align_spec(), opt, pool);
}

Report run_allvsall_sensitive(const RunOptions& opt, util::ThreadPool& pool) {
  return run_allvsall(sensitive_spec(), opt, pool);
}

std::uint64_t allvsall_digest(bool sensitive, std::uint64_t seed) {
  const Spec s = sensitive ? sensitive_spec() : align_spec();
  return digest(metagenome(s.shape, seed));
}

}  // namespace perfbench
