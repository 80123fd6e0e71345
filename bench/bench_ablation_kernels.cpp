// google-benchmark microbenches for the two leaf kernels the paper's
// performance rests on: batch Smith-Waterman (the ADEPT stand-in, one pair
// at a time and as int16 lane groups) and local semiring SpGEMM, plus the
// setup stage's k-mer kernels (extraction, substitute k-mers, the tile
// transpose). Reports real CUPS / products-per-second of this host, which
// is useful when re-calibrating sim/machine_model.hpp.
#include <benchmark/benchmark.h>

#include "oracle/spgemm_hash.hpp"
#include "pastis.hpp"

using namespace pastis;

namespace {

std::vector<std::string> random_proteins(std::size_t count, std::size_t len,
                                         std::uint64_t seed) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  util::Xoshiro256 rng(seed);
  std::vector<std::string> seqs(count);
  for (auto& s : seqs) {
    s.resize(len);
    for (auto& c : s) c = aas[rng.below(aas.size())];
  }
  return seqs;
}

void BM_SmithWatermanFull(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto seqs = random_proteins(2, len, 42);
  const auto scoring = align::Scoring::pastis_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman(seqs[0], seqs[1], scoring));
  }
  state.counters["CUPS"] = benchmark::Counter(
      static_cast<double>(len) * static_cast<double>(len) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmithWatermanFull)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_SmithWatermanScoreOnly(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto seqs = random_proteins(2, len, 43);
  const auto scoring = align::Scoring::pastis_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::smith_waterman_score(seqs[0], seqs[1], scoring));
  }
  state.counters["CUPS"] = benchmark::Counter(
      static_cast<double>(len) * static_cast<double>(len) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmithWatermanScoreOnly)->Arg(128)->Arg(512);

void BM_BandedSW(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const int half_width = static_cast<int>(state.range(1));
  const auto seqs = random_proteins(2, len, 44);
  const auto scoring = align::Scoring::pastis_default();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto res =
        align::banded_smith_waterman(seqs[0], seqs[1], scoring, 0, half_width);
    benchmark::DoNotOptimize(res);
    cells += res.cells;  // band cells, not len * len
  }
  state.counters["CUPS"] = benchmark::Counter(static_cast<double>(cells),
                                              benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedSW)->Args({512, 16})->Args({512, 64})->Args({512, 256});

/// 64 pairs of mixed lengths, uniform in [mean/2, 3*mean/2), each a
/// reference and a diverged copy: the shape of a production lane batch.
struct LaneBench {
  std::vector<std::string> seqs;
  std::vector<align::LanePair> pairs;
  std::vector<align::AlignResult> out;
};

LaneBench lane_bench(std::size_t mean, std::uint64_t seed) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  util::Xoshiro256 rng(seed);
  LaneBench b;
  for (int k = 0; k < 64; ++k) {
    std::string q(mean / 2 + rng.below(mean), 'A');
    for (auto& c : q) c = aas[rng.below(aas.size())];
    std::string r = q;
    for (auto& c : r) {
      if (rng.chance(0.2)) c = aas[rng.below(aas.size())];
    }
    b.seqs.push_back(std::move(q));
    b.seqs.push_back(std::move(r));
  }
  for (std::size_t k = 0; k < b.seqs.size(); k += 2) {
    b.pairs.push_back({b.seqs[k], b.seqs[k + 1], 0});
  }
  b.out.resize(b.pairs.size());
  return b;
}

/// Logical DP cells (m * n, or band cells) a lane batch updated, as a rate.
void lane_counters(benchmark::State& state, const LaneBench& b) {
  std::uint64_t cells = 0;
  for (const auto& r : b.out) cells += r.cells;
  state.counters["MCUPS"] = benchmark::Counter(
      static_cast<double>(cells) * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_LaneGroupFull(benchmark::State& state) {
  auto b = lane_bench(static_cast<std::size_t>(state.range(0)), 54);
  const auto scoring = align::Scoring::pastis_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::align_lanes(b.pairs, scoring, {}, b.out));
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  lane_counters(state, b);
}
BENCHMARK(BM_LaneGroupFull)->Arg(128)->Arg(256)->Arg(512);

void BM_LaneGroupBanded(benchmark::State& state) {
  auto b = lane_bench(static_cast<std::size_t>(state.range(0)), 55);
  const auto scoring = align::Scoring::pastis_default();
  const align::LaneBand band{false, static_cast<int>(state.range(1))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::align_lanes(b.pairs, scoring, band, b.out));
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  lane_counters(state, b);
}
BENCHMARK(BM_LaneGroupBanded)->Args({512, 16})->Args({512, 64})->Args({80, 32});

void BM_XDrop(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  auto seqs = random_proteins(1, len, 45);
  seqs.push_back(seqs[0]);  // identical pair: worst case extension length
  const auto scoring = align::Scoring::pastis_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::xdrop_extend(
        seqs[0], seqs[1], static_cast<std::uint32_t>(len / 2),
        static_cast<std::uint32_t>(len / 2), 6, scoring, 25));
  }
}
BENCHMARK(BM_XDrop)->Arg(256)->Arg(1024);

void BM_BatchAligner(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  const auto seqs = random_proteins(64, 200, 46);
  std::vector<align::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (std::uint32_t j = i + 1; j < 64; j += 8) tasks.push_back({i, j, 0, 0});
  }
  align::BatchAligner::Config cfg;
  cfg.devices = devices;
  const align::BatchAligner aligner(align::Scoring::pastis_default(), cfg);
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aligner.align_batch(seq_of, tasks, nullptr,
                            &util::ThreadPool::global()));
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(tasks.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchAligner)->Arg(1)->Arg(6);

sparse::SpMat<int> random_sparse(sparse::Index n, double density,
                                 std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<sparse::Triple<int>> t;
  const auto target = static_cast<std::size_t>(double(n) * double(n) * density);
  for (std::size_t k = 0; k < target; ++k) {
    t.push_back({static_cast<sparse::Index>(rng.below(n)),
                 static_cast<sparse::Index>(rng.below(n)),
                 static_cast<int>(rng.below(5)) + 1});
  }
  return sparse::SpMat<int>::from_triples(n, n, std::move(t),
                                          [](int& a, const int& b) { a += b; });
}

void BM_SpGemmHash(benchmark::State& state) {
  const auto n = static_cast<sparse::Index>(state.range(0));
  const auto A = random_sparse(n, 0.01, 47);
  const auto B = random_sparse(n, 0.01, 48);
  sparse::SpGemmStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::spgemm_hash<sparse::PlusTimes<int>>(A, B, &stats));
  }
  state.counters["products/s"] = benchmark::Counter(
      static_cast<double>(stats.products), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpGemmHash)->Arg(512)->Arg(2048)->Arg(8192);

void BM_SpGemmHash2Phase(benchmark::State& state) {
  const auto n = static_cast<sparse::Index>(state.range(0));
  const auto A = random_sparse(n, 0.01, 47);
  const auto B = random_sparse(n, 0.01, 48);
  const auto threads = static_cast<std::size_t>(state.range(1));
  util::ThreadPool pool(threads);
  sparse::SpGemmStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spgemm_hash2p<sparse::PlusTimes<int>>(
        A, B, &stats, &pool));
  }
  state.counters["products/s"] = benchmark::Counter(
      static_cast<double>(stats.products), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpGemmHash2Phase)
    ->Args({512, 1})
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

void BM_KmerExtraction(benchmark::State& state) {
  const auto seqs = random_proteins(1, 10000, 51);
  const kmer::Alphabet alphabet(kmer::Alphabet::Kind::kProtein25);
  const kmer::KmerCodec codec(alphabet.size(), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kmer::extract_distinct_kmers(seqs[0], alphabet, codec));
  }
  state.counters["residues/s"] = benchmark::Counter(
      1e4 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KmerExtraction);

void BM_NearestKmers(benchmark::State& state) {
  // Substitute k-mers as the sensitive pipeline asks for them: protein
  // alphabet, k = 6, the m = 8 nearest within the default loss cap.
  const auto seqs = random_proteins(1, 2000, 52);
  const core::PastisConfig cfg;
  const kmer::Alphabet alphabet(kmer::Alphabet::Kind::kProtein25);
  const kmer::KmerCodec codec(alphabet.size(), 6);
  const kmer::NeighborGenerator gen(alphabet, codec, cfg.make_scoring(),
                                    cfg.subs_max_loss);
  const auto hits = kmer::extract_distinct_kmers(seqs[0], alphabet, codec);
  for (auto _ : state) {
    for (const auto& h : hits) benchmark::DoNotOptimize(gen.nearest(h.code, 8));
  }
  state.counters["kmers/s"] = benchmark::Counter(
      static_cast<double>(hits.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NearestKmers);

void BM_SpMatTranspose(benchmark::State& state) {
  // A k-mer matrix tile: 4,000 sequences x 88 k-mers (about 350K nonzeros)
  // over a 10^8-column slice of the 25^6 k-mer space.
  const auto seqs = random_proteins(4000, 93, 53);
  const kmer::Alphabet alphabet(kmer::Alphabet::Kind::kProtein25);
  const kmer::KmerCodec codec(alphabet.size(), 6);
  const sparse::Index ncols = 100000000;
  std::vector<sparse::Triple<core::KmerPos>> t;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (const auto& h : kmer::extract_kmers(seqs[i], alphabet, codec)) {
      t.push_back({static_cast<sparse::Index>(i),
                   static_cast<sparse::Index>(h.code % ncols),
                   core::KmerPos{h.pos}});
    }
  }
  const auto tile = sparse::SpMat<core::KmerPos>::from_triples(
      static_cast<sparse::Index>(seqs.size()), ncols, std::move(t));
  for (auto _ : state) benchmark::DoNotOptimize(tile.transposed());
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(tile.nnz() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpMatTranspose)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
