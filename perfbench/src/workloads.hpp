// The perfbench workloads. Each one generates its inputs from the seed,
// sets up, measures for the requested seconds (tracing off), checks the
// program's outputs outside the timed region, and fills a Report with the
// end-to-end metrics — or, for a traced run, with the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace output of a traced run ("" = do not write).
  std::string trace_out;
};

Report run_allvsall_align(const RunOptions& opt, pastis::util::ThreadPool& pool);
Report run_allvsall_sensitive(const RunOptions& opt,
                              pastis::util::ThreadPool& pool);
Report run_serve_mixed(const RunOptions& opt, pastis::util::ThreadPool& pool);

/// Digests of each workload's generated inputs at a seed (the generator
/// self-test compares them across seeds).
std::uint64_t allvsall_digest(bool sensitive, std::uint64_t seed);
std::uint64_t serve_digest(std::uint64_t seed);

}  // namespace perfbench
