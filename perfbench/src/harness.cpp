#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double steal_cpu_s() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  double field[8] = {};
  in >> label;
  for (double& f : field) in >> f;
  if (!in || label != "cpu") return 0.0;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? field[7] / static_cast<double>(hz) : 0.0;
}

Stopwatch::Stopwatch()
    : wall0_(now_s()), cpu0_(process_cpu_s()), steal0_(steal_cpu_s()) {}

Sample Stopwatch::read() const {
  Sample s;
  s.wall_s = now_s() - wall0_;
  s.cpu_s = process_cpu_s() - cpu0_;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  const double capacity = s.wall_s * static_cast<double>(cpus > 0 ? cpus : 1);
  s.steal_share = capacity > 0.0 ? (steal_cpu_s() - steal0_) / capacity : 0.0;
  return s;
}

namespace {
constexpr double kMaxStealShare = 0.005;
constexpr double kStretch = 2.0;
}  // namespace

std::vector<std::size_t> usable(const std::vector<Sample>& samples,
                                std::size_t min_clean) {
  std::vector<std::size_t> clean, all;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.push_back(i);
    if (samples[i].steal_share <= kMaxStealShare) clean.push_back(i);
  }
  return !clean.empty() && clean.size() >= min_clean ? clean : all;
}

MeasureLoop::MeasureLoop(double budget_s, std::size_t min_samples)
    : budget_s_(budget_s), min_samples_(min_samples), start_(now_s()) {}

bool MeasureLoop::more() const {
  if (samples_.size() < min_samples_) return true;
  std::size_t n_clean = 0;
  double clean_s = 0.0;
  for (const auto& s : samples_) {
    if (s.steal_share > kMaxStealShare) continue;
    ++n_clean;
    clean_s += s.wall_s;
  }
  if (n_clean >= min_samples_ && clean_s >= budget_s_) return false;
  return now_s() - start_ < kStretch * budget_s_;
}

double steal_share(const std::vector<Sample>& samples) {
  double stolen = 0.0, wall = 0.0;
  for (const auto& s : samples) {
    stolen += s.steal_share * s.wall_s;
    wall += s.wall_s;
  }
  return wall > 0.0 ? stolen / wall : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t digest_add(std::uint64_t h, const std::string& s) {
  std::uint64_t f = 0xcbf29ce484222325ull;  // FNV-1a over the bytes
  for (const char c : s) {
    f ^= static_cast<unsigned char>(c);
    f *= 0x100000001b3ull;
  }
  return mix64(h ^ mix64(f ^ s.size()));
}

bool sampled(std::uint64_t a, std::uint64_t b, std::uint64_t salt,
             double fraction) {
  const std::uint64_t h = mix64(mix64(a ^ mix64(salt)) ^ b);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(now_s()) {}

Tracer::Scope Tracer::span(const char* name, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.t0 = clock();
  s.t1 = -1.0;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].t1 = tracer_->clock();
  tracer_->open_.pop_back();
}

double Tracer::total(const std::string& name, double since) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.t1 >= 0.0 && s.t0 >= since && s.name == name) t += s.t1 - s.t0;
  }
  return t;
}

double Tracer::leaf_total(double since) const {
  std::vector<char> has_child(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) has_child[static_cast<std::size_t>(s.parent)] = 1;
  }
  double t = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (has_child[i] == 0 && s.t1 >= 0.0 && s.t0 >= since) t += s.t1 - s.t0;
  }
  return t;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  const char* sep = "";
  for (const auto& s : spans_) {
    if (s.t1 < 0.0) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"parent\":%d}}",
                  sep, s.name.c_str(), s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6,
                  static_cast<unsigned long long>(s.request), s.parent);
    out << buf;
    sep = ",";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

// ---- Report -----------------------------------------------------------------

void Report::fail(const std::string& what) {
  failures.push_back(what);
  ++failed;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metric_object(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << (i == 0 ? "" : ",") << quote(ms[i].name) << ":{\"value\":"
      << number(ms[i].value) << ",\"unit\":" << quote(ms[i].unit) << "}";
  }
  o << "}";
  return o.str();
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"workload\":" << quote(workload) << ",\"seed\":" << seed
    << ",\"trace\":" << (trace ? 1 : 0)
    << ",\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":" << metric_object(metrics)
    << ",\"info\":" << metric_object(info) << ",\"text\":{";
  for (std::size_t i = 0; i < text.size(); ++i) {
    o << (i == 0 ? "" : ",") << quote(text[i].first) << ":"
      << quote(text[i].second);
  }
  o << "},\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    o << (i == 0 ? "" : ",") << quote(failures[i]);
  }
  o << "]}";
  return o.str();
}

}  // namespace perfbench
