// perfbench: the repository's measured end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --selftest --seed <n>     generator determinism self-test
//   perfbench --list-metrics            metric names and units, one a line
//
// Prints a human-readable summary on stderr and one JSON object on the last
// line of stdout (perfbench/run.py turns it into the result line and the
// recorded trajectory). Modeled sim::MachineModel seconds appear only under
// "info" with a "modeled." prefix; they are never metrics.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: reported by every untraced run, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"search_s", "s"},
    {"cpu_s", "s"},           {"peak_rss_mb", "MB"},
    {"recall", "ratio"},      {"queries_per_s", "queries/s"},
    {"batch_p50_ms", "ms"},   {"batch_p90_ms", "ms"},
};

// Per-layer metrics: reported by every traced run; 0 where a layer does not
// take part in the workload.
constexpr MetricDef kPerLayer[] = {
    {"kmer.extract_s", "s"},
    {"kmer.nnz", "count"},
    {"sparse.assemble_s", "s"},
    {"sparse.transpose_s", "s"},
    {"sparse.split_s", "s"},
    {"sparse.spgemm_s", "s"},
    {"sparse.products", "count"},
    {"sparse.out_nnz", "count"},
    {"sparse.products_per_s", "1/s"},
    {"cascade.tier0_s", "s"},
    {"cascade.tier1_s", "s"},
    {"cascade.tier0_pairs_in", "count"},
    {"cascade.tier0_pairs_out", "count"},
    {"cascade.tier1_pairs_out", "count"},
    {"cascade.tier1_cells", "count"},
    {"align.dp_s", "s"},
    {"align.pairs", "count"},
    {"align.cells", "count"},
    {"align.mcups", "Mcells/s"},
    {"core.candidates_s", "s"},
    {"core.candidates", "count"},
    {"core.filter_s", "s"},
    {"core.edges", "count"},
    {"core.edge_yield", "ratio"},
    {"pipeline.residual_s", "s"},
    {"index.build_s", "s"},
    {"index.postings", "count"},
    {"serve.search_batch_s", "s"},
    {"serve.add_references_s", "s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.cache_invalidations", "count"},
    {"serve.compactions", "count"},
    {"serve.candidates", "count"},
    {"serve.aligned_pairs", "count"},
    {"serve.spgemm_products", "count"},
    {"serve.kmer_extract_s", "s"},
    {"serve.shard_spgemm_s", "s"},
    {"serve.candidates_s", "s"},
    {"serve.align_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) continue;
    k = k.substr(2);
    const auto eq = k.find('=');
    if (eq != std::string::npos) {
      a[k.substr(0, eq)] = k.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a[k] = argv[++i];
    } else {
      a[k] = "1";
    }
  }
  return a;
}

/// Reorders the workload's metrics into the declared set: every declared
/// name once, in table order. A missing end-to-end metric is a benchmark
/// bug; a missing per-layer metric is a layer the workload does not use.
bool finalize(Report& rep) {
  std::map<std::string, Metric> got;
  for (const auto& m : rep.metrics) got[m.name] = m;
  std::vector<Metric> out;
  bool ok = true;
  auto take = [&](const auto& table, bool required) {
    for (const auto& d : table) {
      const auto it = got.find(d.name);
      if (it == got.end()) {
        if (required) {
          std::fprintf(stderr, "perfbench: metric %s missing\n", d.name);
          ok = false;
        }
        out.push_back({d.name, 0.0, d.unit});
      } else {
        out.push_back({d.name, it->second.value, d.unit});
        got.erase(it);
      }
    }
  };
  if (rep.trace) {
    take(kPerLayer, false);
  } else {
    take(kEndToEnd, true);
  }
  for (const auto& [name, m] : got) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    ok = false;
  }
  rep.metrics = std::move(out);
  return ok;
}

int selftest(std::uint64_t seed) {
  struct Gen {
    const char* name;
    std::uint64_t (*digest)(std::uint64_t);
  };
  const Gen gens[] = {
      {"allvsall_align",
       [](std::uint64_t s) { return perfbench::allvsall_digest(false, s); }},
      {"allvsall_sensitive",
       [](std::uint64_t s) { return perfbench::allvsall_digest(true, s); }},
      {"serve_mixed", perfbench::serve_digest},
  };
  int failures = 0;
  for (const auto& g : gens) {
    const std::uint64_t a = g.digest(seed);
    const std::uint64_t b = g.digest(seed);
    const std::uint64_t c = g.digest(seed + 1);
    const bool ok = a == b && a != c;
    std::printf("%-20s seed %llu digest %016llx  repeat %s  seed+1 %s\n",
                g.name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(a), a == b ? "same" : "DIFFERS",
                a != c ? "differs" : "SAME");
    failures += ok ? 0 : 1;
  }
  std::printf("generator self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  auto get = [&](const char* k, const char* def) {
    const auto it = args.find(k);
    return it == args.end() ? std::string(def) : it->second;
  };
  if (args.count("list-metrics") != 0) {
    for (const auto& d : kEndToEnd) std::printf("end_to_end %s %s\n", d.name, d.unit);
    for (const auto& d : kPerLayer) std::printf("per_layer %s %s\n", d.name, d.unit);
    return 0;
  }
  const auto seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  if (args.count("selftest") != 0) return selftest(seed);

  perfbench::RunOptions opt;
  opt.workload = get("workload", "");
  opt.seed = seed;
  opt.seconds = std::atof(get("seconds", "10").c_str());
  opt.trace = get("trace", "0") == "1";
  opt.trace_out = get("trace-out", "");
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  // One explicit pool sized like nproc (the CPUs this process may use)
  // drives every layer call.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int n_cpus =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  pastis::util::ThreadPool pool(static_cast<std::size_t>(n_cpus > 0 ? n_cpus : 1));
  Report rep;
  try {
    if (opt.workload == "allvsall_align") {
      rep = perfbench::run_allvsall_align(opt, pool);
    } else if (opt.workload == "allvsall_sensitive") {
      rep = perfbench::run_allvsall_sensitive(opt, pool);
    } else if (opt.workload == "serve_mixed") {
      rep = perfbench::run_serve_mixed(opt, pool);
    } else {
      std::fprintf(stderr,
                   "perfbench: unknown workload '%s' (allvsall_align, "
                   "allvsall_sensitive, serve_mixed)\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!rep.correct()) {
    // A failed run still reports what it measured; the metrics of a run
    // that stopped early may be incomplete, so fill the declared set.
    for (const auto& f : rep.failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
  }
  if (!finalize(rep) && rep.correct()) return 1;

  rep.text.emplace_back("pool_threads", std::to_string(pool.size()));
  rep.text.emplace_back("compiler", PERFBENCH_COMPILER);
  rep.text.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  std::fprintf(stderr, "perfbench %s seed %llu trace %d: %s, %llu ops, %llu failed\n",
               rep.workload.c_str(), static_cast<unsigned long long>(rep.seed),
               rep.trace ? 1 : 0, rep.correct() ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(rep.attempted),
               static_cast<unsigned long long>(rep.failed));
  for (const auto& m : rep.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& m : rep.info) {
    std::fprintf(stderr, "  (%s %.6g %s)\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("%s\n", rep.to_json().c_str());
  return 0;
}
