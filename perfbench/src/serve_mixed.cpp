// serve_mixed: the §III annotation use case with writes beside reads.
//
// One episode = set-up (KmerIndex::build + ServingTier construction), then
// one closed-loop client: it sends a small search_batch, waits for the
// answer, sends the next; every 12 batches it calls add_references first,
// and the size-ratio trigger compacts the delta segments on the way. The
// query stream is Zipf-skewed over a fixed pool, so repeats reach the
// result cache. A run repeats whole episodes, each from a fresh tier, until
// the requested seconds are used: every episode is the same work.
//
// Traced episodes additionally re-drive each batch's cache-miss queries
// through the layers the engine calls (k-mer extraction, shard SpGEMM,
// candidate staging, alignment) with a span around each, and check that the
// re-drive reproduces the served hits.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "inputs.hpp"
#include "pastis.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pastis;
using sparse::Index;

constexpr int kRanks = 4;        // simulated serving ranks
constexpr int kShards = 8;       // k-mer-range index shards
constexpr std::uint32_t kTopK = 10;
constexpr double kCompactionTrigger = 0.03;
// Batches (by position after the latest addition) whose hits are
// re-checked against a cache-off engine over a from-scratch index.
constexpr std::size_t kCheckedPositions[] = {3, 9};
// Batches served by the untimed warm-up episode.
constexpr std::size_t kWarmupBatches = 24;

core::PastisConfig make_config() {
  return core::PastisConfig{};  // full SW, cascade off, no substitutes
}

serve::TierOptions tier_options() {
  serve::TierOptions t;
  t.engine.nprocs = kRanks;
  t.engine.top_k = kTopK;
  t.cache_capacity_bytes = 64ull << 20;
  t.cache_shards = 8;
  t.compaction_trigger_ratio = kCompactionTrigger;
  return t;
}

std::vector<io::SimilarityEdge> rebased(std::vector<io::SimilarityEdge> v,
                                        Index base) {
  for (auto& e : v) e.seq_b -= base;
  io::sort_edges(v);
  return v;
}

/// One served batch kept for the output check.
struct CheckedBatch {
  std::size_t epoch = 0;  // number of additions applied before it
  Index base = 0;         // global id of its first query
  std::vector<std::string> queries;
  std::vector<io::SimilarityEdge> hits;
};

struct Episode {
  Sample setup, stream;  // set-up, and the whole stream of batches and adds
  double build_s = 0.0;
  std::vector<double> batch_s, add_s;
  std::uint64_t queries = 0, postings = 0;
  serve::CacheStats cache;
  std::uint64_t compactions = 0, candidates = 0, aligned = 0, products = 0;
  std::uint64_t predicted_cache_hits = 0, cache_hits = 0;
  std::vector<CheckedBatch> checked;
  // Traced episodes only: per-layer span totals over the stream.
  std::map<std::string, double> layer_s;
  double redrive_s = 0.0, leaf_s = 0.0;
};

const char* const kRedriveLayers[] = {"serve.kmer_extract",
                                      "serve.shard_spgemm",
                                      "serve.candidates", "serve.align"};

/// Re-drives the cache-miss queries of one served batch through the layers
/// the engine's cold path calls, at the tier's current epoch. Returns their
/// hits (top-k per query, canonical order, global query ids).
std::vector<io::SimilarityEdge> redrive_batch(
    const serve::ServingTier& tier, const std::vector<std::string>& queries,
    const std::vector<std::size_t>& miss, Index base,
    const core::PastisConfig& cfg, const align::BatchAligner& aligner,
    util::ThreadPool& pool, Tracer& tr, std::uint64_t request) {
  const serve::DeltaIndex& delta = tier.delta_index();
  const index::KmerIndex& idx = delta.base();
  const Index n_refs = delta.total_refs();
  const auto nq = static_cast<Index>(miss.size());
  const int n_shards = idx.n_shards();

  std::vector<sparse::SpMat<core::KmerPos>> a_query(
      static_cast<std::size_t>(n_shards));
  {
    auto s = tr.span("serve.kmer_extract", request);
    const kmer::Alphabet alphabet(cfg.alphabet);
    const kmer::KmerCodec codec(alphabet.size(), cfg.k);
    const kmer::NeighborGenerator neighbors(alphabet, codec, cfg.make_scoring(),
                                            cfg.subs_max_loss);
    std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_query(nq);
    pool.parallel_for(nq, [&](std::size_t k) {
      (void)core::extract_sequence_kmers(queries[miss[k]], static_cast<Index>(k),
                                         alphabet, codec, neighbors,
                                         cfg.subs_kmers, per_query[k]);
    });
    std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_shard(
        static_cast<std::size_t>(n_shards));
    for (const auto& v : per_query) {
      for (const auto& t : v) {
        const int sh = sim::ProcGrid::part_of(t.col, idx.kmer_space(), n_shards);
        per_shard[static_cast<std::size_t>(sh)].push_back(
            {t.row, t.col - idx.shard_begin(sh), t.val});
      }
    }
    for (int sh = 0; sh < n_shards; ++sh) {
      const auto si = static_cast<std::size_t>(sh);
      a_query[si] = sparse::SpMat<core::KmerPos>::from_triples(
          nq, idx.shard_begin(sh + 1) - idx.shard_begin(sh),
          std::move(per_shard[si]),
          [](core::KmerPos& acc, const core::KmerPos& v) {
            core::keep_min_pos(acc, v);
          });
    }
  }

  sparse::SpMat<index::CrossKmers> c;
  {
    auto s = tr.span("serve.shard_spgemm", request);
    const int n_src = 1 + delta.n_segments();
    std::vector<sparse::SpMat<index::CrossKmers>> parts(
        static_cast<std::size_t>(n_src * n_shards));
    pool.parallel_for(parts.size(), [&](std::size_t cell) {
      const int src = static_cast<int>(cell) / n_shards;
      const int sh = static_cast<int>(cell) % n_shards;
      const auto& b = src == 0 ? idx.shard(sh) : delta.segment(src - 1).shard(sh);
      const auto& a = a_query[static_cast<std::size_t>(sh)];
      if (a.empty() || b.empty()) return;
      auto part = core::discovery_spgemm<index::CrossSemiring>(a, b, cfg,
                                                              nullptr, &pool);
      if (src == 0) {
        parts[cell] = std::move(part);
        return;
      }
      // Segment-local reference columns lift to global ids.
      const Index col_base = delta.segment_ref_base(src - 1);
      std::vector<sparse::Triple<index::CrossKmers>> lifted;
      part.for_each([&](Index i, Index j, const index::CrossKmers& v) {
        lifted.push_back({i, j + col_base, v});
      });
      parts[cell] = sparse::SpMat<index::CrossKmers>::from_triples(
          nq, n_refs, std::move(lifted));
    });
    for (auto& p : parts) {
      if (p.nrows() == 0) p = sparse::SpMat<index::CrossKmers>(nq, n_refs);
    }
    c = sparse::add_merge(parts, nq, n_refs,
                          [](index::CrossKmers& acc, const index::CrossKmers& v) {
                            index::CrossSemiring::add(acc, v);
                          });
  }

  std::vector<align::AlignTask> tasks;
  {
    auto s = tr.span("serve.candidates", request);
    c.for_each([&](Index qi, Index rj, const index::CrossKmers& ck) {
      if (ck.count < cfg.common_kmer_threshold) return;
      const Index q_global = base + static_cast<Index>(miss[qi]);
      core::CommonKmers eq;
      eq.count = ck.count;
      if (core::BlockPlan::index_based_keep(rj, q_global)) {
        eq.first = ck.first_rq;
        tasks.push_back(core::canonical_task(rj, q_global, eq));
      } else {
        eq.first = ck.first_qr;
        tasks.push_back(core::canonical_task(q_global, rj, eq));
      }
    });
  }

  std::vector<io::SimilarityEdge> hits;
  {
    auto s = tr.span("serve.align", request);
    const align::BatchAligner::SeqAccessor seq_of =
        [&](std::uint32_t id) -> std::string_view {
      return id < n_refs ? delta.ref(id) : std::string_view(queries[id - base]);
    };
    std::vector<align::AlignResult> results(tasks.size());
    pool.parallel_for(tasks.size(), [&](std::size_t t) {
      results[t] = aligner.align_one_task(seq_of, tasks[t]);
    });
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (auto e = core::edge_if_similar(tasks[t], results[t],
                                         seq_of(tasks[t].q_id).size(),
                                         seq_of(tasks[t].r_id).size(), cfg)) {
        hits.push_back(*e);
      }
    }
    // Top-k per query: best score first, ties to the smaller reference.
    std::sort(hits.begin(), hits.end(),
              [](const io::SimilarityEdge& x, const io::SimilarityEdge& y) {
                if (x.seq_b != y.seq_b) return x.seq_b < y.seq_b;
                if (x.score != y.score) return x.score > y.score;
                return x.seq_a < y.seq_a;
              });
    std::vector<io::SimilarityEdge> kept;
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      run = (i > 0 && hits[i].seq_b == hits[i - 1].seq_b) ? run + 1 : 0;
      if (run < kTopK) kept.push_back(hits[i]);
    }
    io::sort_edges(kept);
    hits = std::move(kept);
  }
  return hits;
}

Episode run_episode(const ServeInputs& in, const core::PastisConfig& cfg,
                    const sim::MachineModel& model, util::ThreadPool& pool,
                    Tracer& tr, std::uint64_t episode, bool keep_checked,
                    std::size_t max_batches, Report& rep) {
  Episode ep;
  const std::uint64_t req0 = episode << 20;
  const Stopwatch setup_sw;
  std::unique_ptr<serve::ServingTier> tier;
  {
    index::KmerIndex idx;
    {
      auto s = tr.span("index.build", req0);
      idx = index::KmerIndex::build(in.refs, cfg, kShards, &pool);
    }
    ep.build_s = setup_sw.read().wall_s;
    ep.postings = idx.nnz();
    auto s = tr.span("serve.tier_build", req0);
    tier = std::make_unique<serve::ServingTier>(std::move(idx), cfg, model,
                                                tier_options(), &pool);
  }
  ep.setup = setup_sw.read();

  const align::BatchAligner aligner = core::make_batch_aligner(cfg, model);
  const double since = tr.clock();
  const Stopwatch stream_sw;
  std::size_t next_add = 0, epoch_start = 0;
  Index epoch_base = tier->delta_index().total_refs();
  Index since_add = 0;
  // (pool entry, parity) pairs served this epoch: a query misses the cache
  // unless the same content with the same parity was served in an earlier
  // batch of the same epoch.
  std::set<std::pair<std::uint32_t, unsigned>> served;
  std::vector<std::string> queries;
  const std::size_t n_batches = std::min(max_batches, in.batches.size());
  for (std::size_t b = 0; b < n_batches; ++b) {
    const std::uint64_t request = req0 + b + 1;
    if (next_add < in.adds.size() && in.add_before[next_add] == b) {
      ++rep.attempted;
      const double a0 = now_s();
      try {
        auto s = tr.span("serve.add_references", request);
        (void)tier->add_references(in.adds[next_add]);
      } catch (const std::exception& e) {
        rep.fail(std::string("add_references threw: ") + e.what());
      }
      ep.add_s.push_back(now_s() - a0);
      ++next_add;
      epoch_start = b;
      since_add = 0;
      served.clear();
      epoch_base = tier->delta_index().total_refs();
    }
    const auto& ids = in.batches[b];
    queries.clear();
    for (const auto id : ids) queries.push_back(in.pool[id]);
    const Index base = epoch_base + since_add;
    std::vector<std::size_t> miss;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (served.count({ids[i], static_cast<unsigned>((base + i) & 1u)}) == 0) {
        miss.push_back(i);
      }
    }

    auto batch_span = tr.span("serve.batch", request);
    ++rep.attempted;
    index::QueryBatchStats st;
    std::vector<io::SimilarityEdge> hits;
    const double q0 = now_s();
    try {
      auto s = tr.span("serve.search_batch", request);
      hits = tier->search_batch(queries, &st);
    } catch (const std::exception& e) {
      rep.fail(std::string("search_batch threw: ") + e.what());
    }
    ep.batch_s.push_back(now_s() - q0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      served.insert({ids[i], static_cast<unsigned>((base + i) & 1u)});
    }
    since_add += static_cast<Index>(ids.size());
    ep.queries += ids.size();
    ep.candidates += st.candidates;
    ep.aligned += st.aligned_pairs;
    ep.products += st.spgemm.products;
    ep.cache_hits += st.cache_hits;
    ep.predicted_cache_hits += ids.size() - miss.size();

    if (tr.enabled()) {
      const double r0 = tr.clock();
      const auto got = redrive_batch(*tier, queries, miss, base, cfg, aligner,
                                     pool, tr, request);
      ep.redrive_s += tr.clock() - r0;
      std::vector<io::SimilarityEdge> want;
      for (const auto& e : hits) {
        const std::size_t pos = e.seq_b - base;
        if (std::binary_search(miss.begin(), miss.end(), pos)) want.push_back(e);
      }
      io::sort_edges(want);
      if (got != want) {
        rep.fail("batch " + std::to_string(b) +
                 ": layer-by-layer re-drive differs from the served hits");
      }
    }
    const std::size_t pos = b - epoch_start;
    if (keep_checked && std::find(std::begin(kCheckedPositions),
                                  std::end(kCheckedPositions),
                                  pos) != std::end(kCheckedPositions)) {
      ep.checked.push_back({next_add, base, queries, hits});
    }
  }
  ep.stream = stream_sw.read();
  if (tier->cache() != nullptr) ep.cache = tier->cache()->stats();
  ep.compactions = tier->stats().compactions;
  if (tr.enabled()) {
    for (const char* l : kRedriveLayers) ep.layer_s[l] = tr.total(l, since);
    ep.layer_s["serve.search_batch"] = tr.total("serve.search_batch", since);
    ep.layer_s["serve.add_references"] = tr.total("serve.add_references", since);
    ep.leaf_s = tr.leaf_total(since);
  }
  return ep;
}

/// Served hits of the sampled batches against a cache-off QueryEngine over a
/// from-scratch index of the same epoch's references. Returns the recall of
/// the oracle's hits among the served ones.
double check_batches(const ServeInputs& in,
                     const std::vector<CheckedBatch>& batches,
                     const core::PastisConfig& cfg,
                     const sim::MachineModel& model, util::ThreadPool& pool,
                     Report& rep) {
  std::uint64_t want_total = 0, found = 0, bad = 0;
  std::size_t k = 0;
  while (k < batches.size()) {
    const std::size_t epoch = batches[k].epoch;
    std::vector<std::string> refs = in.refs;
    for (std::size_t e = 0; e < epoch; ++e) {
      refs.insert(refs.end(), in.adds[e].begin(), in.adds[e].end());
    }
    const auto n_refs = static_cast<Index>(refs.size());
    const auto idx = index::KmerIndex::build(std::move(refs), cfg, kShards, &pool);
    index::QueryEngine::Options o;
    o.nprocs = kRanks;
    o.top_k = kTopK;
    index::QueryEngine oracle(idx, cfg, model, o, &pool);
    for (; k < batches.size() && batches[k].epoch == epoch; ++k) {
      const CheckedBatch& s = batches[k];
      // Match the query-id parity the served batch had: the load-balance
      // parity picks the seed orientation.
      oracle.reset_stream();
      const std::vector<std::string> pad{"M"};
      if (((n_refs ^ s.base) & 1u) != 0) (void)oracle.search_batch(pad);
      const Index oracle_base = n_refs + (((n_refs ^ s.base) & 1u) != 0 ? 1 : 0);
      const auto want = rebased(oracle.search_batch(s.queries), oracle_base);
      const auto got = rebased(s.hits, s.base);
      want_total += want.size();
      for (const auto& e : want) {
        found += std::find(got.begin(), got.end(), e) != got.end() ? 1 : 0;
      }
      if (got != want) ++bad;
    }
  }
  if (bad > 0) {
    rep.fail(std::to_string(bad) + " of " + std::to_string(batches.size()) +
             " sampled batches differ from a cache-off engine over a "
             "from-scratch index");
  }
  rep.note("check.sampled_batches", static_cast<double>(batches.size()), "count");
  rep.note("recall.sample_hits", static_cast<double>(want_total), "count");
  return want_total == 0 ? 1.0
                         : static_cast<double>(found) /
                               static_cast<double>(want_total);
}

}  // namespace

std::uint64_t serve_digest(std::uint64_t seed) {
  return digest(serve_inputs(ServeShape{}, seed));
}

Report run_serve_mixed(const RunOptions& opt, util::ThreadPool& pool) {
  Report rep;
  rep.workload = "serve_mixed";
  rep.seed = opt.seed;
  rep.trace = opt.trace;
  const ServeInputs in = serve_inputs(ServeShape{}, opt.seed);
  rep.text.emplace_back("input_digest", hex64(digest(in)));
  const core::PastisConfig cfg = make_config();
  const sim::MachineModel model{};

  // Warm-up: a short untimed episode lets lazy set-up and the allocator
  // settle.
  Tracer off(false);
  (void)run_episode(in, cfg, model, pool, off, 0, false, kWarmupBatches, rep);

  std::vector<Episode> eps;
  MeasureLoop loop(opt.trace ? 0.5 * opt.seconds : opt.seconds, 1);
  while (loop.more()) {
    eps.push_back(run_episode(in, cfg, model, pool, off, eps.size() + 1,
                              eps.empty(), in.batches.size(), rep));
    loop.add(eps.back().stream);
  }
  const double rss = peak_rss_mb();

  const double recall =
      check_batches(in, eps.front().checked, cfg, model, pool, rep);
  std::vector<double> stream, cpu, qps, batch, adds;
  for (const auto i : loop.usable()) {
    const Episode& ep = eps[i];
    stream.push_back(ep.stream.wall_s);
    cpu.push_back(ep.stream.cpu_s);
    qps.push_back(static_cast<double>(ep.queries) / ep.stream.wall_s);
    batch.insert(batch.end(), ep.batch_s.begin(), ep.batch_s.end());
    adds.insert(adds.end(), ep.add_s.begin(), ep.add_s.end());
  }
  std::vector<Sample> setup_samples;
  for (const auto& ep : eps) setup_samples.push_back(ep.setup);
  // Set-up in process CPU seconds, as in the all-vs-all workloads.
  std::vector<double> setup, setup_wall;
  for (const auto i : usable(setup_samples, 1)) {
    setup.push_back(setup_samples[i].cpu_s);
    setup_wall.push_back(setup_samples[i].wall_s);
  }
  rep.note("setup.wall_s", median(setup_wall), "s");
  const Episode& last = eps.back();
  rep.note("episodes", static_cast<double>(eps.size()), "count");
  rep.note("episodes.used", static_cast<double>(stream.size()), "count");
  rep.note("host.steal_share", steal_share(loop.samples()), "ratio");
  rep.note("batches", static_cast<double>(batch.size()), "count");
  rep.note("add_p50_ms", 1e3 * median(adds), "ms");
  rep.note("cache.hit_ratio", last.cache.hit_rate(), "ratio");
  rep.note("cache.predicted_hits", static_cast<double>(last.predicted_cache_hits),
           "count");
  rep.note("cache.hits", static_cast<double>(last.cache_hits), "count");
  rep.note("compactions", static_cast<double>(last.compactions), "count");
  rep.note("episode.candidates", static_cast<double>(last.candidates), "count");
  rep.note("episode.aligned_pairs", static_cast<double>(last.aligned), "count");

  if (!opt.trace) {
    rep.metric("setup_s", median(setup), "s");
    rep.metric("search_s", median(stream), "s");
    rep.metric("cpu_s", median(cpu), "s");
    rep.metric("peak_rss_mb", rss, "MB");
    rep.metric("recall", recall, "ratio");
    rep.metric("queries_per_s", median(qps), "queries/s");
    rep.metric("batch_p50_ms", 1e3 * median(batch), "ms");
    rep.metric("batch_p90_ms", 1e3 * quantile(batch, 0.9), "ms");
    return rep;
  }

  // ---- traced episodes ------------------------------------------------------
  Tracer tr(true);
  std::vector<Episode> traced;
  MeasureLoop trace_loop(0.5 * opt.seconds, 1);
  while (trace_loop.more()) {
    traced.push_back(run_episode(in, cfg, model, pool, tr, 1000 + traced.size(),
                                 false, in.batches.size(), rep));
    trace_loop.add(traced.back().stream);
  }
  const auto used = trace_loop.usable();
  auto med = [&](auto fn) {
    std::vector<double> v;
    for (const auto i : used) v.push_back(fn(traced[i]));
    return median(v);
  };
  auto per_batch = [&](const char* layer) {
    return med([&](const Episode& ep) {
      return ep.layer_s.at(layer) / static_cast<double>(ep.batch_s.size());
    });
  };
  const double cover =
      med([](const Episode& ep) { return ep.leaf_s / ep.stream.wall_s; });
  if (cover < 0.9) {
    rep.fail("layer spans cover only " + std::to_string(cover) +
             " of the traced wall time (need >= 0.9)");
  }
  const Episode& t = traced.back();
  rep.metric("index.build_s", med([](const Episode& ep) { return ep.build_s; }), "s");
  rep.metric("index.postings", static_cast<double>(t.postings), "count");
  rep.metric("serve.search_batch_s", per_batch("serve.search_batch"), "s");
  rep.metric("serve.add_references_s", med([](const Episode& ep) {
               return ep.layer_s.at("serve.add_references") /
                      static_cast<double>(std::max<std::size_t>(1, ep.add_s.size()));
             }),
             "s");
  rep.metric("serve.cache_hit_ratio", t.cache.hit_rate(), "ratio");
  rep.metric("serve.cache_evictions", static_cast<double>(t.cache.evictions), "count");
  rep.metric("serve.cache_invalidations", static_cast<double>(t.cache.invalidations),
             "count");
  rep.metric("serve.compactions", static_cast<double>(t.compactions), "count");
  rep.metric("serve.candidates", static_cast<double>(t.candidates), "count");
  rep.metric("serve.aligned_pairs", static_cast<double>(t.aligned), "count");
  rep.metric("serve.spgemm_products", static_cast<double>(t.products), "count");
  rep.metric("serve.kmer_extract_s", per_batch("serve.kmer_extract"), "s");
  rep.metric("serve.shard_spgemm_s", per_batch("serve.shard_spgemm"), "s");
  rep.metric("serve.candidates_s", per_batch("serve.candidates"), "s");
  rep.metric("serve.align_s", per_batch("serve.align"), "s");
  rep.metric("trace.overhead_s",
             med([](const Episode& ep) { return ep.stream.wall_s - ep.redrive_s; }) -
                 median(stream),
             "s");
  rep.metric("trace.coverage", cover, "ratio");
  if (!opt.trace_out.empty() && !tr.write_chrome(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 opt.trace_out.c_str());
  }
  return rep;
}

}  // namespace perfbench
