// Batch pairwise aligner modelled on ADEPT [Awan et al., BMC Bioinformatics
// 2020], the GPU library the paper dedicates Summit's V100s to.
//
// ADEPT's driver detects the node's GPUs, splits a batch of alignments
// across them, and runs one host thread per device for packing and
// transfers. We reproduce that architecture: `devices` logical accelerators,
// each fed a slice of the batch by a driver thread. Alignment *results* are
// computed exactly (CPU kernels from this module's siblings); alignment
// *time* is charged to the device model (cells / GCUPS), which is how every
// paper-facing number stays hardware-independent.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace pastis::align {

enum class AlignKind { kFullSW, kBanded, kXDrop };

/// One pairwise alignment request. Seeds come from the overlap matrix's
/// CommonKmers payload and are only consulted by the banded/x-drop kernels.
struct AlignTask {
  std::uint32_t q_id = 0;
  std::uint32_t r_id = 0;
  std::uint32_t seed_q = 0;
  std::uint32_t seed_r = 0;
};

/// Work/time accounting for one or more batches.
struct BatchStats {
  std::uint64_t pairs = 0;
  std::uint64_t cells = 0;          // DP cells updated
  double kernel_seconds = 0.0;      // modeled device kernel time (max device)
  double packing_seconds = 0.0;     // modeled host pack/transfer time
  std::uint64_t h2d_bytes = 0;      // sequence bytes shipped to devices

  void merge(const BatchStats& o) {
    pairs += o.pairs;
    cells += o.cells;
    kernel_seconds += o.kernel_seconds;
    packing_seconds += o.packing_seconds;
    h2d_bytes += o.h2d_bytes;
  }
};

/// Reusable lane-assignment buffers (one per rank, or per executor slot).
/// The aligner itself is immutable and re-entrant; all mutable per-batch
/// state lives in these scratch objects, so the streaming executor keeps
/// one per in-flight slot instead of allocating per call.
struct LaneScratch {
  std::vector<int> lanes;
  std::vector<std::uint64_t> load;          // per device: Σ |q|·|r| proxy
  std::vector<std::uint64_t> device_cells;  // stats_for accumulators
  std::vector<std::uint64_t> device_pairs;
};

/// Reusable whole-batch buffers for one executor slot: the flattened
/// result array plus lane scratch for batch-granular calls.
struct AlignWorkspace {
  std::vector<AlignResult> results;
  LaneScratch lanes;
};

/// Counts of one BatchAligner::align_tasks call.
struct LaneStats {
  std::uint64_t groups = 0;            // lane groups, scalar singletons too
  std::uint64_t scalar_fallbacks = 0;  // lanes re-run after int16 saturation
};

/// Reusable buffers of BatchAligner::align_tasks.
struct LaneWorkspace {
  std::vector<LanePair> pairs;
  LanePlan plan;
};

class BatchAligner {
 public:
  struct Config {
    AlignKind kind = AlignKind::kFullSW;
    /// Logical accelerators per node (Summit: 6 V100s).
    int devices = 6;
    /// Sustained cell updates per second per device. Default calibrated so
    /// a 3364-node run peaks near the paper's 176.3 TCUPS
    /// (176.3e12 / 3364 nodes / 6 GPUs ≈ 8.7e9).
    double cups_per_device = 8.7e9;
    /// Host-side packing/transfer cost per pair (driver threads).
    double pack_seconds_per_pair = 2.0e-7;
    int band_half_width = 32;
    int xdrop = 25;
    std::uint32_t seed_len = 6;
    /// Telemetry sinks (null = off). With metrics, every accounted batch
    /// adds per-lane cells/pairs counters ("align.lane<d>.cells_total"),
    /// batch totals, and a measured cells/second histogram per driver lane
    /// from the workspace align_batch; with a tracer, each batch run is a
    /// measured span. Results are unaffected.
    obs::Telemetry telemetry;
  };

  BatchAligner(Scoring scoring, Config config)
      : scoring_(std::move(scoring)), config_(config) {}

  /// Resolves sequence residues for a global sequence id.
  using SeqAccessor = std::function<std::string_view(std::uint32_t)>;

  /// Aligns every task. When `pool` is non-null the batch is split across
  /// `config.devices` driver lanes executed on the pool (the ADEPT driver
  /// layout); otherwise it runs inline in the calling thread (the mode used
  /// inside the simulated ranks, which are already running in parallel).
  /// Results are positionally parallel to `tasks` and independent of the
  /// execution mode.
  std::vector<AlignResult> align_batch(const SeqAccessor& seq_of,
                                       std::span<const AlignTask> tasks,
                                       BatchStats* stats = nullptr,
                                       util::ThreadPool* pool = nullptr) const;

  /// Workspace variant of align_batch for re-entrant streaming use: results
  /// land in `ws.results` (capacity reused across calls) and the returned
  /// span views them. Element-wise identical to align_batch.
  std::span<const AlignResult> align_batch(const SeqAccessor& seq_of,
                                           std::span<const AlignTask> tasks,
                                           AlignWorkspace& ws,
                                           BatchStats* stats = nullptr,
                                           util::ThreadPool* pool = nullptr) const;

  /// Aligns a single task (element-wise identical to align_batch). The
  /// simulated runtime uses this to flatten many ranks' batches onto one
  /// host pool while keeping per-rank accounting exact.
  [[nodiscard]] AlignResult align_one_task(const SeqAccessor& seq_of,
                                           const AlignTask& task) const {
    return align_pair(seq_of(task.q_id), seq_of(task.r_id), task,
                      config_.kind);
  }

  /// One pair through the kernel dispatch with an explicit kind, the single
  /// dispatch point of every batch path and every cascade tier: tier 1
  /// probes with a cheap kind (banded / x-drop), tier 2 re-runs the
  /// configured kind — all sharing the same scoring, band and x-drop knobs
  /// and the same lane-assignment/workspace machinery as the batch paths.
  [[nodiscard]] AlignResult align_pair(std::string_view q, std::string_view r,
                                       const AlignTask& task,
                                       AlignKind kind) const;

  /// Aligns every task with `kind` into `results` (positionally parallel),
  /// on `pool` or serially when it is null. Full and banded tasks run as
  /// lane groups (plan_lane_groups); each pool claim takes one group,
  /// largest first. X-drop tasks run one at a time. Every result equals
  /// align_pair's.
  LaneStats align_tasks(const SeqAccessor& seq_of,
                        std::span<const AlignTask> tasks, AlignKind kind,
                        std::span<AlignResult> results, util::ThreadPool* pool,
                        LaneWorkspace& ws) const;

  /// Device-model accounting for a batch whose results are already known,
  /// on a reusable scratch (re-entrant stage path): assigns lanes into
  /// `scratch` exactly as align_batch does and accumulates through its
  /// per-device buffers.
  [[nodiscard]] BatchStats stats_for(const SeqAccessor& seq_of,
                                     std::span<const AlignTask> tasks,
                                     std::span<const AlignResult> results,
                                     LaneScratch& scratch) const;

  /// Deterministic device assignment into `scratch.lanes` (capacity
  /// reused): tasks go to the least-loaded device by the DP-size proxy
  /// |q|*|r| (ADEPT balances its per-GPU batches by DP size; plain
  /// round-robin quantizes badly when batches are small).
  void assign_lanes(const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
                    LaneScratch& scratch) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Scoring& scoring() const { return scoring_; }

 private:
  [[nodiscard]] BatchStats stats_with(const SeqAccessor& seq_of,
                                      std::span<const AlignTask> tasks,
                                      std::span<const AlignResult> results,
                                      std::span<const int> lanes,
                                      std::vector<std::uint64_t>& device_cells,
                                      std::vector<std::uint64_t>& device_pairs) const;

  Scoring scoring_;
  Config config_;
};

}  // namespace pastis::align
