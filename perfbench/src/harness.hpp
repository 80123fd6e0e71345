// Measurement plumbing shared by the perfbench workloads: process clocks,
// order statistics, an in-memory span recorder and the run report.
//
// Everything here is benchmark-side. The program under test is only ever
// called through its public headers; spans are recorded around those calls
// from the benchmark's own files, never from inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary epoch.
double now_s();
/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// High-water resident set of the process so far, in MiB.
double peak_rss_mb();

/// CPU-seconds the hypervisor has taken from this machine so far: steal
/// time summed over all CPUs (/proc/stat). 0 where the kernel reports none.
double steal_cpu_s();

/// Wall time, process CPU time and host steal over one measured interval.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_share = 0.0;  // stolen share of the machine's CPU capacity
};

/// Starts an interval on construction; read() measures it so far.
class Stopwatch {
 public:
  Stopwatch();
  [[nodiscard]] Sample read() const;

 private:
  double wall0_, cpu0_, steal0_;
};

/// Samples measured while the hypervisor took at most 0.5% of the
/// machine's CPU capacity. On a shared host, steal bursts stretched
/// identical work by up to 2x, and 1% steal already cost about 15%: one
/// descheduled vCPU stalls every parallel_for it takes part in. Such
/// samples say nothing about the program. Returns the indices of the clean
/// samples, or of all samples when fewer than `min_clean` are clean.
std::vector<std::size_t> usable(const std::vector<Sample>& samples,
                                std::size_t min_clean);

/// Stopping rule of a measurement loop: sample until the usable samples add
/// up to `budget_s` of wall time (and number at least `min_samples`). While
/// steal keeps samples unusable the loop runs on, but never past 2x the
/// budget; then every sample is used.
class MeasureLoop {
 public:
  MeasureLoop(double budget_s, std::size_t min_samples);
  [[nodiscard]] bool more() const;
  void add(const Sample& s) { samples_.push_back(s); }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::vector<std::size_t> usable() const {
    return perfbench::usable(samples_, min_samples_);
  }

 private:
  double budget_s_;
  std::size_t min_samples_;
  double start_;
  std::vector<Sample> samples_;
};

/// The wall-weighted steal share over `samples`.
double steal_share(const std::vector<Sample>& samples);

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1]; 0 if empty.
double quantile(std::vector<double> v, double q);

/// A 64-bit value as 16 hex digits (input digests).
std::string hex64(std::uint64_t v);

/// splitmix64 finalizer: the benchmark's hash for digests and sampling.
std::uint64_t mix64(std::uint64_t x);
/// Folds a string into a running 64-bit digest.
std::uint64_t digest_add(std::uint64_t h, const std::string& s);
/// Deterministic Bernoulli(fraction) decision keyed on (a, b, salt).
bool sampled(std::uint64_t a, std::uint64_t b, std::uint64_t salt,
             double fraction);

/// Spans recorded in memory around calls into the layers, written out as a
/// Chrome trace-event file at the end of the run. A disabled tracer records
/// nothing; each span is then one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t request = 0;  // spans of one request share this id
    int parent = -1;            // index of the enclosing span, -1 = none
    double t0 = 0.0, t1 = 0.0;  // seconds since the tracer was created
  };

  /// RAII span: closes (and records its end) on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span named `name` for request `request`, nested in whichever
  /// span is open on the stack.
  [[nodiscard]] Scope span(const char* name, std::uint64_t request);

  /// Sum of the durations of every closed span named `name` whose start
  /// lies at or after `since` (seconds on the tracer's clock).
  [[nodiscard]] double total(const std::string& name, double since = 0.0) const;
  /// Sum of durations of every closed leaf span (one without children)
  /// starting at or after `since`.
  [[nodiscard]] double leaf_total(double since = 0.0) const;
  /// Current time on the tracer's clock.
  [[nodiscard]] double clock() const { return now_s() - origin_; }

  /// Writes every span as a Chrome trace "X" event (microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run, printed as one JSON line on stdout.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // failed output checks, in order
  std::vector<Metric> metrics;        // end-to-end or per-layer set
  std::vector<Metric> info;           // context: sizes, samples, modeled
  std::vector<std::pair<std::string, std::string>> text;  // string context

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check; it also counts as one failed op.
  void fail(const std::string& what);

  [[nodiscard]] bool correct() const { return failures.empty() && failed == 0; }
  [[nodiscard]] std::string to_json() const;
};

}  // namespace perfbench
