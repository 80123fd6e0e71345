#include "align/batch.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pastis::align {

AlignResult BatchAligner::align_pair(std::string_view q, std::string_view r,
                                     const AlignTask& task,
                                     AlignKind kind) const {
  switch (kind) {
    case AlignKind::kFullSW:
      return smith_waterman(q, r, scoring_);
    case AlignKind::kBanded:
      return banded_smith_waterman(
          q, r, scoring_,
          static_cast<int>(task.seed_r) - static_cast<int>(task.seed_q),
          config_.band_half_width);
    case AlignKind::kXDrop:
      return xdrop_extend(q, r, task.seed_q, task.seed_r, config_.seed_len,
                          scoring_, config_.xdrop);
  }
  return {};
}

LaneStats BatchAligner::align_tasks(const SeqAccessor& seq_of,
                                    std::span<const AlignTask> tasks,
                                    AlignKind kind,
                                    std::span<AlignResult> results,
                                    util::ThreadPool* pool,
                                    LaneWorkspace& ws) const {
  if (kind == AlignKind::kXDrop) {
    util::for_each_index(pool, tasks.size(), [&](std::size_t t) {
      const AlignTask& task = tasks[t];
      results[t] = align_pair(seq_of(task.q_id), seq_of(task.r_id), task, kind);
    });
    return {};
  }
  ws.pairs.resize(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    ws.pairs[t] = {seq_of(tasks[t].q_id), seq_of(tasks[t].r_id),
                   static_cast<int>(tasks[t].seed_r) -
                       static_cast<int>(tasks[t].seed_q)};
  }
  const LaneBand band{kind == AlignKind::kFullSW, config_.band_half_width};
  plan_lane_groups(ws.pairs, band, ws.plan);

  // One group per claim, largest first: a slow worker holds up at most one
  // small group at the end.
  const std::size_t groups = ws.plan.groups();
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> fallbacks{0};
  const auto worker = [&](std::size_t) {
    for (std::size_t g; (g = next.fetch_add(1)) < groups;) {
      fallbacks += align_lane_group(ws.pairs, ws.plan.group(g), scoring_,
                                    band, results);
    }
  };
  util::for_each_index(pool,
                       pool == nullptr ? 1 : std::min(pool->size(), groups),
                       worker);
  return {groups, fallbacks.load()};
}

void BatchAligner::assign_lanes(const SeqAccessor& seq_of,
                                std::span<const AlignTask> tasks,
                                LaneScratch& scratch) const {
  const int devices = std::max(1, config_.devices);
  scratch.lanes.assign(tasks.size(), 0);
  scratch.load.assign(static_cast<std::size_t>(devices), 0);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    int best = 0;
    for (int d = 1; d < devices; ++d) {
      if (scratch.load[static_cast<std::size_t>(d)] <
          scratch.load[static_cast<std::size_t>(best)]) {
        best = d;
      }
    }
    scratch.lanes[t] = best;
    scratch.load[static_cast<std::size_t>(best)] +=
        static_cast<std::uint64_t>(seq_of(tasks[t].q_id).size()) *
        static_cast<std::uint64_t>(seq_of(tasks[t].r_id).size());
  }
}

BatchStats BatchAligner::stats_for(const SeqAccessor& seq_of,
                                   std::span<const AlignTask> tasks,
                                   std::span<const AlignResult> results,
                                   LaneScratch& scratch) const {
  assign_lanes(seq_of, tasks, scratch);
  return stats_with(seq_of, tasks, results,
                    std::span<const int>(scratch.lanes), scratch.device_cells,
                    scratch.device_pairs);
}

BatchStats BatchAligner::stats_with(
    const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
    std::span<const AlignResult> results, std::span<const int> lanes,
    std::vector<std::uint64_t>& device_cells,
    std::vector<std::uint64_t>& device_pairs) const {
  const int devices = std::max(1, config_.devices);
  device_cells.assign(static_cast<std::size_t>(devices), 0);
  device_pairs.assign(static_cast<std::size_t>(devices), 0);
  BatchStats stats;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const int lane = lanes[t];
    device_cells[lane] += results[t].cells;
    ++device_pairs[lane];
    stats.cells += results[t].cells;
    stats.h2d_bytes += seq_of(tasks[t].q_id).size() +
                       seq_of(tasks[t].r_id).size();
  }
  std::uint64_t max_cells = 0, max_pairs = 0;
  for (int d = 0; d < devices; ++d) {
    max_cells = std::max(max_cells, device_cells[d]);
    max_pairs = std::max(max_pairs, device_pairs[d]);
  }
  stats.pairs = results.size();
  stats.kernel_seconds =
      static_cast<double>(max_cells) / config_.cups_per_device;
  stats.packing_seconds =
      static_cast<double>(max_pairs) * config_.pack_seconds_per_pair;
  if (config_.telemetry.metrics != nullptr) {
    auto& m = *config_.telemetry.metrics;
    m.counter("align.pairs_total").add(static_cast<double>(stats.pairs));
    m.counter("align.cells_total").add(static_cast<double>(stats.cells));
    for (int d = 0; d < devices; ++d) {
      const std::string lane = "align.lane" + std::to_string(d);
      m.counter(lane + ".cells_total")
          .add(static_cast<double>(device_cells[static_cast<std::size_t>(d)]));
      m.counter(lane + ".pairs_total")
          .add(static_cast<double>(device_pairs[static_cast<std::size_t>(d)]));
      // The Fig. 7 presentation of per-device balance, one sample per lane
      // per batch.
      m.min_avg_max("align.lane_cells")
          .add(static_cast<double>(device_cells[static_cast<std::size_t>(d)]));
    }
  }
  return stats;
}

std::span<const AlignResult> BatchAligner::align_batch(
    const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
    AlignWorkspace& ws, BatchStats* stats, util::ThreadPool* pool) const {
  ws.results.assign(tasks.size(), AlignResult{});
  const int devices = std::max(1, config_.devices);

  // Lanes are computed exactly once per batch and shared between the run
  // and the device-model accounting below.
  assign_lanes(seq_of, tasks, ws.lanes);
  const auto& lanes = ws.lanes.lanes;
  const obs::Telemetry& telem = config_.telemetry;
  auto run_lane = [&](int lane) {
    // ADEPT distributes alignments across the node's devices; the driver
    // balances per-GPU batches by DP size (see assign_lanes).
    const auto t0 = telem.metrics != nullptr ? std::chrono::steady_clock::now()
                                             : std::chrono::steady_clock::time_point{};
    std::uint64_t lane_cells = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (lanes[t] != lane) continue;
      const AlignTask& task = tasks[t];
      ws.results[t] =
          align_pair(seq_of(task.q_id), seq_of(task.r_id), task, config_.kind);
      lane_cells += ws.results[t].cells;
    }
    if (telem.metrics != nullptr && lane_cells > 0) {
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      if (s > 0.0) {
        // Measured host-side DP throughput of this driver lane.
        telem.metrics
            ->histogram("align.lane" + std::to_string(lane) +
                        ".cells_per_second",
                        std::array{1e6, 1e7, 1e8, 1e9, 1e10, 1e11})
            .observe(static_cast<double>(lane_cells) / s);
      }
    }
  };

  {
    obs::Span span(telem.tracer, "align.batch");
    span.arg("pairs", static_cast<double>(tasks.size()));
    if (pool != nullptr && tasks.size() > 1) {
      pool->parallel_for(static_cast<std::size_t>(devices),
                         [&](std::size_t lane) { run_lane(static_cast<int>(lane)); });
    } else {
      for (int lane = 0; lane < devices; ++lane) run_lane(lane);
    }
  }

  if (stats != nullptr) {
    stats->merge(stats_with(seq_of, tasks, ws.results,
                            std::span<const int>(lanes),
                            ws.lanes.device_cells, ws.lanes.device_pairs));
  }
  return ws.results;
}

std::vector<AlignResult> BatchAligner::align_batch(
    const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
    BatchStats* stats, util::ThreadPool* pool) const {
  AlignWorkspace ws;
  align_batch(seq_of, tasks, ws, stats, pool);
  return std::move(ws.results);
}

}  // namespace pastis::align
