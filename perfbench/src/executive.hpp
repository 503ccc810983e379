// The benchmark's executive loop: the public entry points, called in the
// order run_pipeline calls them, with each call timed on the host clock
// and the outputs checked between calls (outside the timed intervals).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "checks.hpp"
#include "src/atm/backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/core/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The q-quantile of `v`, interpolating linearly between order
/// statistics; 0 for no samples.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline constexpr int kPeriods = atm::core::kPeriodsPerMajorCycle;

/// Host wall time of one major cycle's calls, plus the modeled platform
/// time the backend reported for its tasks.
struct CycleTimes {
  double cycle_ms = 0.0;  ///< Sum of every timed call of the cycle.
  std::array<double, kPeriods> task1_ms{};
  double task23_ms = 0.0;
  std::array<double, kPeriods> task1_modeled_ms{};
  double task23_modeled_ms = 0.0;
};

class LayerProbe;

class Executive {
 public:
  Executive(atm::tasks::Backend& backend, const Fleet& fleet,
            const atm::tasks::PipelineConfig& cfg);

  /// Reload the initial fleet and rewind the radar noise stream, so the
  /// next cycles replay the same work from the same state.
  void rewind();

  /// One major cycle in executive order: every period generate_radar,
  /// run_task1 and apply_reentry_all; after the last period run_task23.
  /// `probe`, when non-null, records spans and runs the layer replays.
  CycleTimes cycle(CheckLog& log, LayerProbe* probe);

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t failed_calls() const { return failed_calls_; }

 private:
  atm::tasks::Backend& backend_;
  const Fleet& fleet_;
  const atm::tasks::PipelineConfig& cfg_;
  atm::core::Rng radar_rng_;
  std::uint64_t calls_ = 0;
  std::uint64_t failed_calls_ = 0;
};

/// run_pipeline's radar noise stream for `seed` (pipeline.cpp salts the
/// seed the same way; check (f) holds the two loops to the same frames).
[[nodiscard]] atm::core::Rng radar_stream(std::uint64_t seed);

}  // namespace perfbench
