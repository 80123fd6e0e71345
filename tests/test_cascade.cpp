// Sensitivity-cascade tests: the tier-0 ungapped diagonal extension unit
// behaviour (empty seed lists, clamping at sequence edges, orientation
// parity), the shared screen stage (core::screen_candidates against the
// leaf tier screens), the stage metrics against the returned stats, the
// table-driven kernel dispatch, bit-identity of the disabled and
// exact-preset cascades across pool sizes, pipeline depths and serving grid
// sides, the fast preset's subset property, and the ResultCache's
// cascade-signature keying (warm-cache-then-retune must recompute, never
// replay).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "align/cascade.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "gen/protein_gen.hpp"
#include "index/index_io.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "obs/metrics.hpp"
#include "serve/result_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pa = pastis::align;
namespace pc = pastis::core;
namespace pg = pastis::gen;
namespace pidx = pastis::index;
namespace pio = pastis::io;
namespace ps = pastis::serve;

namespace {

pg::Dataset test_dataset(std::uint32_t n = 160, std::uint64_t seed = 77) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 110.0;
  g.max_length = 400;
  return pg::generate_proteins(g);
}

std::vector<std::string> make_queries(const std::vector<std::string>& refs,
                                      std::uint32_t n = 30,
                                      std::uint64_t seed = 5) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(seed);
  std::vector<std::string> queries;
  for (std::uint32_t q = 0; q < n; ++q) {
    if (rng.chance(0.7)) {
      std::string s = refs[rng.below(refs.size())];
      for (auto& c : s) {
        if (rng.chance(0.06)) c = aas[rng.below(aas.size())];
      }
      queries.push_back(std::move(s));
    } else {
      std::string s(80 + rng.below(120), 'A');
      for (auto& c : s) c = aas[rng.below(aas.size())];
      queries.push_back(std::move(s));
    }
  }
  return queries;
}

std::vector<std::vector<std::string>> split_batches(
    const std::vector<std::string>& queries, std::size_t nb) {
  std::vector<std::vector<std::string>> batches(nb);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batches[i * nb / queries.size()].push_back(queries[i]);
  }
  return batches;
}

/// A query stream with many exact repeats, so the cache has hits to serve.
std::vector<std::string> repeat_stream(const std::vector<std::string>& base,
                                       std::size_t n, std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(base[rng.below(base.size())]);
  }
  return out;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set(
    const std::vector<pio::SimilarityEdge>& edges) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> s;
  for (const auto& e : edges) s.insert({e.seq_a, e.seq_b});
  return s;
}

/// Every pair (i < j) of `seqs` sharing a 3-mer, staged as the pipeline
/// stages it: seeded at the first and last shared 3-mer, with the count of
/// shared 3-mer occurrences. Short k-mers make chance candidates, so the
/// screens have both homologs to keep and noise to reject. Dealt
/// round-robin over `ranks` lists.
std::vector<std::vector<pc::ScreenCandidate>> staged_candidates(
    const std::vector<std::string>& seqs, std::size_t ranks) {
  constexpr std::size_t k = 3;
  std::vector<std::vector<pc::ScreenCandidate>> out(ranks);
  std::size_t dealt = 0;
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    std::map<std::string_view, std::uint32_t> first_pos;
    const std::string_view q = seqs[i];
    for (std::uint32_t a = 0; a + k <= q.size(); ++a) {
      first_pos.emplace(q.substr(a, k), a);
    }
    for (std::uint32_t j = i + 1; j < seqs.size(); ++j) {
      const std::string_view r = seqs[j];
      pc::ScreenCandidate c;
      for (std::uint32_t b = 0; b + k <= r.size(); ++b) {
        const auto it = first_pos.find(r.substr(b, k));
        if (it == first_pos.end()) continue;
        const pa::Seed seed{it->second, b};
        if (c.count == 0) c.seeds[0] = seed;
        c.seeds[1] = seed;
        ++c.count;
      }
      if (c.count == 0) continue;
      c.n_seeds = c.count > 1 ? 2 : 1;
      c.task = {i, j, c.seeds[0].q, c.seeds[0].r};
      out[dealt++ % ranks].push_back(c);
    }
  }
  return out;
}

}  // namespace

// ---- tier-0 ungapped diagonal extension units -------------------------------

TEST(UngappedExtend, EmptySeedListScoresNothing) {
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  const auto out =
      pa::ungapped_diag_extend("ARNDARND", "ARNDARND", {}, 6, sc, 25, 32);
  EXPECT_EQ(out.score, 0);
  EXPECT_EQ(out.cells, 0u);
  EXPECT_EQ(out.seeds_extended, 0);
}

TEST(UngappedExtend, SingleSeedScoresTheSharedDiagonal) {
  // Identical sequences, seed on the main diagonal: the extension sweeps
  // the whole diagonal and the score is the sum of the self-substitution
  // scores.
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  const std::string s = "ARNDCQEG";
  int expect = 0;
  for (const char c : s) expect += sc.score_chars(c, c);
  const pa::Seed seed{2, 2};
  const auto out = pa::ungapped_diag_extend(s, s, {&seed, 1}, 3, sc, 1000, 32);
  EXPECT_EQ(out.score, expect);
  EXPECT_EQ(out.seeds_extended, 1);
  EXPECT_GT(out.cells, 0u);
}

TEST(UngappedExtend, SeedsPastTheSequenceEdgesAreClampedOrSkipped) {
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  const std::string q = "ARNDCQ";
  const std::string r = "NDCQ";
  // Diagonal d = 2: valid query range is [2, 6). A seed before the range
  // start is pulled onto it instead of reading out of bounds.
  const pa::Seed clamped{0, 0};  // would be q=0 on diagonal... (q=0,r=0) d=0
  const auto ok =
      pa::ungapped_diag_extend(q, r, {&clamped, 1}, 6, sc, 1000, 32);
  EXPECT_GT(ok.cells, 0u);  // scored the overlap, no crash
  // A seed whose diagonal misses both sequences entirely is skipped.
  const pa::Seed off{0, 40};
  const auto skipped =
      pa::ungapped_diag_extend(q, r, {&off, 1}, 6, sc, 1000, 32);
  EXPECT_EQ(skipped.seeds_extended, 0);
  EXPECT_EQ(skipped.score, 0);
}

TEST(UngappedExtend, ReverseOrientationParity) {
  // Swapping the two sequences together with every seed's coordinates must
  // give the same score and the same scanned cells — the property that
  // makes the tier-0 screen invariant to which triangle a pair is aligned
  // from.
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(17);
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  for (int trial = 0; trial < 50; ++trial) {
    std::string q(40 + rng.below(80), 'A');
    std::string r(40 + rng.below(80), 'A');
    for (auto& c : q) c = aas[rng.below(aas.size())];
    for (auto& c : r) c = aas[rng.below(aas.size())];
    pa::Seed fwd[2], rev[2];
    const int n = 1 + static_cast<int>(rng.below(2));
    for (int i = 0; i < n; ++i) {
      fwd[i] = {static_cast<std::uint32_t>(rng.below(q.size())),
                static_cast<std::uint32_t>(rng.below(r.size()))};
      rev[i] = {fwd[i].r, fwd[i].q};
    }
    const auto a = pa::ungapped_diag_extend(
        q, r, {fwd, static_cast<std::size_t>(n)}, 6, sc, 25, 32);
    const auto b = pa::ungapped_diag_extend(
        r, q, {rev, static_cast<std::size_t>(n)}, 6, sc, 25, 32);
    EXPECT_EQ(a.score, b.score) << "trial " << trial;
    EXPECT_EQ(a.cells, b.cells) << "trial " << trial;
    EXPECT_EQ(a.seeds_extended, b.seeds_extended) << "trial " << trial;
  }
}

TEST(Cascade, DisabledCascadeIsASingleBranch) {
  const pa::CascadeOptions off;
  EXPECT_FALSE(off.any());
  EXPECT_EQ(off.fingerprint(), 0u);
  pc::PastisConfig cfg;
  const auto aligner = pc::make_batch_aligner(cfg, pastis::sim::MachineModel{});
  pa::CascadeStats cs;
  EXPECT_TRUE(pa::cascade_keep("ARND", "ARND", pa::AlignTask{}, 3, {}, -1,
                               aligner, off, cs));
  EXPECT_EQ(cs.tier0.pairs_in, 0u);
  EXPECT_EQ(cs.tier1.pairs_in, 0u);
}

TEST(Cascade, FingerprintSeparatesPresets) {
  const auto exact = pa::CascadeOptions::exact();
  const auto fast = pa::CascadeOptions::fast();
  EXPECT_NE(exact.fingerprint(), 0u);
  EXPECT_NE(fast.fingerprint(), 0u);
  EXPECT_NE(exact.fingerprint(), fast.fingerprint());
  auto tweaked = fast;
  tweaked.tier1_min_score += 1;
  EXPECT_NE(tweaked.fingerprint(), fast.fingerprint());
}

// ---- the shared screen stage ------------------------------------------------

TEST(ScreenCandidates, NoTierEnabledPassesEveryTaskThroughInOrder) {
  const auto data = test_dataset(40, 9);
  pc::PastisConfig cfg;
  const auto aligner = pc::make_batch_aligner(cfg, pastis::sim::MachineModel{});
  const pa::BatchAligner::SeqAccessor seq_of =
      [&](std::uint32_t id) -> std::string_view { return data.seqs[id]; };
  auto cands = staged_candidates(data.seqs, 3);
  const auto staged = cands;
  ASSERT_GT(staged[0].size(), 0u);

  std::vector<std::vector<pa::AlignTask>> tasks(3);
  tasks[1].push_back({7, 8, 0, 0});  // survivors append after existing tasks
  const auto cs = pc::screen_candidates(cands, seq_of, aligner, cfg.cascade,
                                        nullptr, tasks);
  ASSERT_EQ(cs.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cs[r].tier0.pairs_in, 0u);
    EXPECT_EQ(cs[r].tier1.pairs_in, 0u);
    const std::size_t skip = r == 1 ? 1 : 0;
    ASSERT_EQ(tasks[r].size(), skip + staged[r].size());
    for (std::size_t t = 0; t < staged[r].size(); ++t) {
      EXPECT_EQ(tasks[r][skip + t].q_id, staged[r][t].task.q_id);
      EXPECT_EQ(tasks[r][skip + t].r_id, staged[r][t].task.r_id);
      EXPECT_EQ(tasks[r][skip + t].seed_q, staged[r][t].task.seed_q);
      EXPECT_EQ(tasks[r][skip + t].seed_r, staged[r][t].task.seed_r);
    }
  }
}

TEST(ScreenCandidates, TiersKeepExactlyWhatTheLeafScreensKeep) {
  const auto data = test_dataset(40, 9);
  pc::PastisConfig cfg;
  const auto aligner = pc::make_batch_aligner(cfg, pastis::sim::MachineModel{});
  const pa::BatchAligner::SeqAccessor seq_of =
      [&](std::uint32_t id) -> std::string_view { return data.seqs[id]; };
  const auto staged = staged_candidates(data.seqs, 3);

  pa::CascadeOptions tier0_only = pa::CascadeOptions::fast();
  tier0_only.tier1_enabled = false;
  pa::CascadeOptions tier1_only = pa::CascadeOptions::fast();
  tier1_only.tier0_enabled = false;
  pastis::util::ThreadPool pool(3);
  for (const auto& opt :
       {pa::CascadeOptions::fast(), tier0_only, tier1_only}) {
    // Oracle: the leaf screens applied one candidate at a time.
    std::vector<std::vector<pa::AlignTask>> want(3);
    std::vector<pa::CascadeStats> want_cs(3);
    std::uint64_t rejects = 0, kept = 0;
    for (std::size_t r = 0; r < 3; ++r) {
      std::vector<pc::ScreenCandidate> v = staged[r];
      if (opt.tier0_enabled) {
        std::vector<pc::ScreenCandidate> next;
        for (const auto& c : v) {
          if (pa::tier0_keep(data.seqs[c.task.q_id], data.seqs[c.task.r_id],
                             {c.seeds, static_cast<std::size_t>(c.n_seeds)},
                             c.count, c.sketch_overlap, aligner, opt,
                             want_cs[r].tier0)) {
            next.push_back(c);
          }
        }
        v = std::move(next);
      }
      if (opt.tier1_enabled) {
        std::vector<pc::ScreenCandidate> next;
        for (const auto& c : v) {
          if (pa::tier1_keep(data.seqs[c.task.q_id], data.seqs[c.task.r_id],
                             c.task, aligner, opt, want_cs[r].tier1)) {
            next.push_back(c);
          }
        }
        v = std::move(next);
      }
      for (const auto& c : v) want[r].push_back(c.task);
      rejects += want_cs[r].tier0.rejects + want_cs[r].tier1.rejects;
      kept += v.size();
    }
    EXPECT_GT(rejects, 0u) << "fingerprint " << opt.fingerprint();
    EXPECT_GT(kept, 0u) << "fingerprint " << opt.fingerprint();

    for (pastis::util::ThreadPool* p : {static_cast<pastis::util::ThreadPool*>(
                                            nullptr),
                                        &pool}) {
      auto cands = staged;
      std::vector<std::vector<pa::AlignTask>> got(3);
      const auto cs =
          pc::screen_candidates(cands, seq_of, aligner, opt, p, got);
      ASSERT_EQ(cs.size(), 3u);
      for (std::size_t r = 0; r < 3; ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << "rank " << r;
        for (std::size_t t = 0; t < got[r].size(); ++t) {
          EXPECT_EQ(got[r][t].q_id, want[r][t].q_id);
          EXPECT_EQ(got[r][t].r_id, want[r][t].r_id);
        }
        const pa::TierStats* g[2] = {&cs[r].tier0, &cs[r].tier1};
        const pa::TierStats* w[2] = {&want_cs[r].tier0, &want_cs[r].tier1};
        for (int t = 0; t < 2; ++t) {
          EXPECT_EQ(g[t]->pairs_in, w[t]->pairs_in) << "tier " << t;
          EXPECT_EQ(g[t]->pairs_out, w[t]->pairs_out) << "tier " << t;
          EXPECT_EQ(g[t]->rejects, w[t]->rejects) << "tier " << t;
          EXPECT_EQ(g[t]->cells, w[t]->cells) << "tier " << t;
        }
      }
    }
  }
}

// ---- stage metrics agree with the returned stats -----------------------------

namespace {

void expect_stage_metrics(const pastis::obs::MetricsSnapshot& snap,
                          const pa::CascadeStats& cs,
                          std::uint64_t aligned_pairs) {
  const pa::TierStats* tiers[2] = {&cs.tier0, &cs.tier1};
  for (int t = 0; t < 2; ++t) {
    const std::string base = "cascade.tier" + std::to_string(t);
    EXPECT_EQ(snap.counters.at(base + ".pairs_in_total"),
              static_cast<double>(tiers[t]->pairs_in));
    EXPECT_EQ(snap.counters.at(base + ".pairs_out_total"),
              static_cast<double>(tiers[t]->pairs_out));
    EXPECT_EQ(snap.counters.at(base + ".rejects_total"),
              static_cast<double>(tiers[t]->rejects));
  }
  EXPECT_EQ(snap.counters.at("align.pairs_total"),
            static_cast<double>(aligned_pairs));
}

}  // namespace

TEST(StageMetrics, PipelineAndEngineCountersMatchTheirStats) {
  const auto data = test_dataset();
  {
    pastis::obs::MetricsRegistry reg;
    pc::PastisConfig cfg;
    cfg.block_rows = cfg.block_cols = 2;
    cfg.pipeline_depth = 2;
    cfg.cascade = pa::CascadeOptions::fast();
    cfg.telemetry.metrics = &reg;
    pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
    const auto got = search.run(data.seqs);
    ASSERT_GT(got.stats.cascade.tier0.rejects + got.stats.cascade.tier1.rejects,
              0u);
    expect_stage_metrics(reg.snapshot(), got.stats.cascade,
                         got.stats.aligned_pairs);
  }
  {
    pastis::obs::MetricsRegistry reg;
    pc::PastisConfig cfg;
    cfg.cascade = pa::CascadeOptions::fast();
    const auto idx = pidx::KmerIndex::build(data.seqs, cfg, 4);
    cfg.telemetry.metrics = &reg;
    pidx::QueryEngine::Options opt;
    opt.nprocs = 3;
    pidx::QueryEngine engine(idx, cfg, pastis::sim::MachineModel{}, opt);
    const auto got =
        engine.serve(split_batches(make_queries(data.seqs, 40, 11), 4));
    ASSERT_GT(got.stats.aligned_pairs, 0u);
    expect_stage_metrics(reg.snapshot(), got.stats.cascade,
                         got.stats.aligned_pairs);
  }
  {
    // A disabled cascade emits no cascade.* names at all.
    pastis::obs::MetricsRegistry reg;
    pc::PastisConfig cfg;
    cfg.telemetry.metrics = &reg;
    pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
    const auto got = search.run(data.seqs);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.count("cascade.tier0.pairs_in_total"), 0u);
    EXPECT_EQ(snap.counters.at("align.pairs_total"),
              static_cast<double>(got.stats.aligned_pairs));
  }
}

// ---- table-driven kernel dispatch (satellite: one dispatch path) -----------

TEST(Cascade, AlignPairKindOverrideMatchesConfiguredKind) {
  const auto data = test_dataset(24, 3);
  pastis::sim::MachineModel model;
  for (const auto kind : {pa::AlignKind::kFullSW, pa::AlignKind::kBanded,
                          pa::AlignKind::kXDrop}) {
    pc::PastisConfig cfg;
    cfg.align_kind = kind;
    const auto configured = pc::make_batch_aligner(cfg, model);
    pc::PastisConfig other;  // differently configured default kind
    const auto overriding = pc::make_batch_aligner(other, model);
    pa::AlignTask task;
    task.q_id = 0;
    task.r_id = 1;
    task.seed_q = 4;
    task.seed_r = 4;
    auto seq_of = [&](std::uint32_t id) -> std::string_view {
      return data.seqs[id];
    };
    for (std::uint32_t r = 1; r < 12; ++r) {
      task.r_id = r;
      const auto want = configured.align_one_task(seq_of, task);
      const auto got = overriding.align_pair(data.seqs[0], data.seqs[r],
                                             task, kind);
      EXPECT_EQ(want.score, got.score);
      EXPECT_EQ(want.cells, got.cells);
      EXPECT_EQ(want.matches, got.matches);
    }
  }
}

// ---- pipeline bit-identity sweeps ------------------------------------------

TEST(Cascade, ExactPresetIsBitIdenticalAcrossPoolsAndDepths) {
  const auto data = test_dataset();
  pc::PastisConfig base;
  pc::SimilaritySearch baseline(base, pastis::sim::MachineModel{}, 4);
  const auto want = baseline.run(data.seqs);
  ASSERT_GT(want.edges.size(), 10u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    pastis::util::ThreadPool pool(threads);
    for (const int depth : {1, 2, 3}) {
      pc::PastisConfig cfg;
      cfg.cascade = pa::CascadeOptions::exact();
      cfg.pipeline_depth = depth;
      pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4, &pool);
      const auto got = search.run(data.seqs);
      EXPECT_EQ(got.edges, want.edges)
          << "threads=" << threads << " depth=" << depth;
      // The exact preset runs both screens but rejects nothing.
      EXPECT_GT(got.stats.cascade.tier0.pairs_in, 0u);
      EXPECT_EQ(got.stats.cascade.tier0.rejects, 0u);
      EXPECT_EQ(got.stats.cascade.tier0.pairs_in,
                got.stats.cascade.tier0.pairs_out);
      EXPECT_EQ(got.stats.cascade.tier1.rejects, 0u);
      EXPECT_GT(got.stats.cascade.screen_cells(), 0u);
    }
  }
}

TEST(Cascade, FastPresetEdgesAreASubsetWithLessAlignmentWork) {
  const auto data = test_dataset();
  pc::PastisConfig base;
  pc::SimilaritySearch baseline(base, pastis::sim::MachineModel{}, 4);
  const auto want = baseline.run(data.seqs);

  pc::PastisConfig cfg;
  cfg.cascade = pa::CascadeOptions::fast();
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto got = search.run(data.seqs);

  // The cascade only removes candidate pairs before alignment; survivors
  // align identically, so fast edges are a subset of the exact edges.
  const auto want_set = edge_set(want.edges);
  for (const auto& e : got.edges) {
    EXPECT_TRUE(want_set.count({e.seq_a, e.seq_b}) > 0)
        << "fast produced an edge the exact path lacks: " << e.seq_a << ","
        << e.seq_b;
  }
  EXPECT_LE(got.stats.aligned_pairs, want.stats.aligned_pairs);
  EXPECT_LT(got.stats.align_cells, want.stats.align_cells);
  EXPECT_GT(got.stats.cascade.tier0.rejects +
                got.stats.cascade.tier1.rejects,
            0u);
}

// ---- serving bit-identity sweeps -------------------------------------------

TEST(Cascade, ServingExactPresetBitIdenticalAcrossGridSides) {
  const auto refs = test_dataset(100, 21).seqs;
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  const auto queries = make_queries(refs);
  const auto batches = split_batches(queries, 4);

  pidx::QueryEngine oracle(idx, cfg, pastis::sim::MachineModel{}, {});
  const auto want = oracle.serve(batches);
  ASSERT_GT(want.hits.size(), 0u);

  for (const int side : {1, 2, 3}) {
    pc::PastisConfig ccfg;
    ccfg.cascade = pa::CascadeOptions::exact();
    pidx::QueryEngine::Options opt;
    opt.grid_side = side;
    pidx::QueryEngine engine(idx, ccfg, pastis::sim::MachineModel{}, opt);
    const auto got = engine.serve(batches);
    EXPECT_EQ(got.hits, want.hits) << "grid_side=" << side;
    EXPECT_GT(got.stats.cascade.tier0.pairs_in, 0u);
    EXPECT_EQ(got.stats.cascade.tier0.rejects, 0u);
    EXPECT_GT(got.stats.batches.at(0).t_screen, 0.0);
  }
}

TEST(Cascade, ServingSketchScreenKeepsNearIdenticalQueries) {
  const auto refs = test_dataset(80, 33).seqs;
  pc::PastisConfig cfg;
  auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  idx.build_sketches(16);

  // Exact-copy queries share every k-mer with their source reference, so
  // they survive any sketch-agreement threshold up to the sketch length.
  pc::PastisConfig ccfg;
  ccfg.cascade = pa::CascadeOptions::exact();
  ccfg.cascade.tier0_min_sketch_overlap = 8;
  pidx::QueryEngine engine(idx, ccfg, pastis::sim::MachineModel{}, {});
  const std::vector<std::string> queries = {refs[3], refs[11]};
  const auto hits = engine.search_batch(queries);
  std::set<std::uint32_t> matched;
  for (const auto& e : hits) matched.insert(e.seq_a);
  EXPECT_TRUE(matched.count(3) > 0);
  EXPECT_TRUE(matched.count(11) > 0);
}

// ---- index v4 sketch persistence -------------------------------------------

TEST(Cascade, SketchTableRoundTripsThroughIndexV4) {
  const auto refs = test_dataset(40, 9).seqs;
  pc::PastisConfig cfg;
  auto idx = pidx::KmerIndex::build(refs, cfg, 3);
  idx.build_sketches(8);
  ASSERT_EQ(idx.sketch_len(), 8);
  ASSERT_EQ(idx.sketches().size(), refs.size() * 8u);

  const auto path = std::string("/tmp/pastis_cascade_v4.pidx");
  pidx::save_index(path, idx);
  const auto loaded = pidx::load_index(path);
  EXPECT_TRUE(loaded == idx);
  EXPECT_EQ(loaded.sketch_len(), 8);
  EXPECT_EQ(loaded.sketches(), idx.sketches());
  std::remove(path.c_str());

  // Sketch determinism + overlap symmetry.
  const pastis::kmer::Alphabet alphabet(cfg.alphabet);
  const pastis::kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const auto a = pidx::KmerIndex::sketch_of(refs[0], alphabet, codec, 8);
  const auto b = pidx::KmerIndex::sketch_of(refs[0], alphabet, codec, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pidx::KmerIndex::sketch_overlap(a.data(), b.data(), 8), 8);
}

// ---- result-cache cascade signature (satellite fix) ------------------------

TEST(Cascade, CacheSignatureSeparatesPresets) {
  ps::ResultCache cache({});
  const std::string q = "ARNDCQEGHILKMFPSTWYV";
  std::vector<pio::SimilarityEdge> hits(1);
  hits[0] = {1, 2, 0.9f, 0.9f, 50};
  const auto sig_a = pa::CascadeOptions::exact().fingerprint();
  const auto sig_b = pa::CascadeOptions::fast().fingerprint();

  cache.insert(q, /*epoch=*/1, /*parity=*/0, /*ordinal=*/0, hits, sig_a);
  std::vector<pio::SimilarityEdge> out;
  EXPECT_TRUE(cache.lookup(q, 1, 0, 5, 1, out, sig_a));
  EXPECT_EQ(out, hits);
  EXPECT_FALSE(cache.lookup(q, 1, 0, 5, 1, out, sig_b));
  EXPECT_FALSE(cache.lookup(q, 1, 0, 5, 1, out, 0));  // cascade-off key
}

TEST(Cascade, WarmCacheThenRetuneRecomputesInsteadOfReplaying) {
  const auto refs = test_dataset(80, 41).seqs;
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  // A repeat-heavy stream: the cache's visibility window only ever admits
  // intra-stream repeats, so every hit below is served from entries the
  // same engine configuration inserted.
  const auto base_queries = make_queries(refs, 12, 7);
  const auto stream = repeat_stream(base_queries, 48, 11);
  const auto batches = split_batches(stream, 6);

  ps::ResultCache cache({});
  pidx::QueryEngine::Options opt;
  opt.result_cache = &cache;

  // Warm the cache under the cascade-off configuration (signature 0).
  pidx::QueryEngine warm(idx, cfg, pastis::sim::MachineModel{}, opt);
  const auto warmed = warm.serve(batches);
  ASSERT_GT(warmed.stats.cache_hits, 0u);  // the cache IS active and hot

  // Retune: the SAME cache now serves a fast-cascade engine. Entries from
  // the cascade-off run carry signature 0 and must never replay into the
  // retuned stream — its output must be bit-identical to a cacheless
  // engine under the same preset. (The retuned engine still hits its OWN
  // insertions on repeats; those carry the fast fingerprint and are
  // correct by construction.)
  pc::PastisConfig fast_cfg;
  fast_cfg.cascade = pa::CascadeOptions::fast();
  pidx::QueryEngine cold(idx, fast_cfg, pastis::sim::MachineModel{}, {});
  const auto want = cold.serve(batches);

  pidx::QueryEngine retuned(idx, fast_cfg, pastis::sim::MachineModel{}, opt);
  const auto got = retuned.serve(batches);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_GT(got.stats.cache_hits, 0u);
}
