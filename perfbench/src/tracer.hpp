// The traced run: spans recorded in memory around every call into a
// layer's public functions, layer replays on copies of the state a call
// is about to see, and the per-layer metrics computed from both.
//
// Span tree: a `cycle` root span per major cycle, whose id every span
// below it carries as `root`; a `period` span per period under it; one
// span per layer call or replay under the period (Task 1 side) or the
// cycle (Tasks 2+3 side). Pool micro-timings are roots of their own.
// Spans are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "executive.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/spatial/sectors.hpp"
#include "src/core/spatial/swept_index.hpp"
#include "src/core/spatial/uniform_grid.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class LayerProbe {
 public:
  LayerProbe(const atm::tasks::PipelineConfig& cfg,
             atm::tasks::Backend& backend);

  void cycle_begin();
  void cycle_end();
  void period_begin();
  void period_end();
  /// A finished call, as a child of the open period (or cycle).
  void span(const char* name, Clock::time_point t0, Clock::time_point t1);

  void before_task1(const atm::airfield::FlightDb& state,
                    const atm::airfield::RadarFrame& frame, int period);
  void after_task1(Clock::time_point t0, Clock::time_point t1,
                   const atm::tasks::Task1Stats& stats);
  void before_task23(const atm::airfield::FlightDb& state);
  void after_task23(Clock::time_point t0, Clock::time_point t1,
                    const atm::tasks::Task23Stats& stats);

  /// Fork/join and per-item cost of a pool with `workers` workers. Call
  /// only after the workload's backend (and its pool) is destroyed, so
  /// the process never runs more threads than the workload does.
  void time_pool(unsigned workers);

  /// Events and bytes per cycle of a JSONL sink attached to run_pipeline.
  void set_obs(double events_per_cycle, double bytes_per_cycle);

  /// Every per-layer metric. `trace_overhead` is traced over untraced
  /// cycle time, measured by the caller.
  [[nodiscard]] std::vector<Metric> metrics(double trace_overhead) const;

  /// One JSON object per span, with its self time, to `path`; the
  /// per-name count, total and self time to `summary`.
  void write_spans(const std::string& path, std::ostream& summary) const;

 private:
  struct SpanRecord {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 for a root.
    std::uint32_t root = 0;
    const char* name = "";
    Clock::time_point t0;
    Clock::time_point t1;
  };

  std::uint32_t open(const char* name, std::uint32_t parent);
  void close(std::uint32_t id);
  std::uint32_t add(const char* name, std::uint32_t parent,
                    Clock::time_point t0, Clock::time_point t1);
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const;
  [[nodiscard]] double total_ms(const char* name) const;

  const atm::tasks::PipelineConfig& cfg_;
  atm::tasks::Backend& backend_;
  const atm::tasks::MimdBackend* mimd_ = nullptr;
  atm::core::kern::Kernel kernel_;
  atm::obs::RecordingSink sink_;

  std::vector<SpanRecord> spans_;
  std::uint32_t cycle_span_ = 0;
  std::uint32_t period_span_ = 0;

  // Replay scratch, reused across calls.
  atm::core::kern::AlignedVector<double> ex_, ey_;
  std::vector<std::int32_t> hits_;
  atm::core::spatial::UniformGrid2D grid_;
  atm::core::spatial::SweptIndex swept_;
  atm::core::spatial::SectorPartition partition_;
  atm::core::kern::SoaSnapshot snap_;
  atm::core::kern::AlignedVector<double> tmin_;
  std::vector<std::uint8_t> flags_;

  // Counts summed over every traced call.
  std::uint64_t task1_calls_ = 0, task23_calls_ = 0, cycles_ = 0;
  std::uint64_t box_tests_ = 0, passes_ = 0, matched_ = 0;
  std::uint64_t pair_candidates_ = 0, pair_tests_ = 0, rescans_ = 0;
  std::uint64_t halo_ = 0, aircraft_ = 0, lanes_masked_ = 0;
  std::uint64_t detect_candidates_ = 0, swept_candidates_ = 0;
  std::uint64_t brute_candidates_ = 0;
  std::uint64_t band_lanes_ = 0, box_lanes_ = 0;
  std::uint64_t regions_ = 0, locked_ops_ = 0;
  std::vector<double> sector_imbalance_;
  std::vector<double> resolve_ms_;
  double replay_ms_ = 0.0;  ///< This cycle's detect + index + gather.
  double fork_join_us_ = 0.0, item_ns_ = 0.0;
  double events_per_cycle_ = 0.0, bytes_per_cycle_ = 0.0;
};

}  // namespace perfbench
