// The benchmark's workloads: which scenario, fleet size and backend shape
// each one runs, and the fleet it feeds the program — the scenario's
// seeded airfield with a few encounters planted on private flight levels,
// so that the conflict checks have answers known by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/airfield/flight_db.hpp"
#include "src/atm/backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/scenarios.hpp"

namespace perfbench {

/// Major cycles in one round. Every round replays the same cycles from
/// the same initial fleet, so a faster program measures the same work.
inline constexpr int kCyclesPerRound = 8;

/// Cycles the independent-path and run_pipeline comparisons cover.
inline constexpr int kPrefixCycles = 2;

struct Workload {
  std::string name;
  atm::tasks::Scenario scenario;  ///< Policy block already set.
  std::size_t aircraft = 0;
  /// MimdBackend with pool_workers() workers; otherwise the sequential
  /// ReferenceBackend (no pool thread at all).
  bool mimd = false;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// CPUs this process may run on (its affinity mask), at least 1.
[[nodiscard]] unsigned usable_cpus();

/// Pool workers of a MIMD workload: the calling thread also runs
/// iterations, so usable_cpus() - 1 workers keep nproc threads in all.
[[nodiscard]] unsigned pool_workers();

/// How a planted pair is laid out, and so what detection must report.
enum class PlantKind {
  kCritical,       ///< Head-on, entering the band well inside critical time.
  kConflict,       ///< Head-on, entering the band after critical time.
  kDiverging,      ///< Flying apart along the same line: never a conflict.
  kGateSeparated,  ///< Critical head-on geometry, 1.5 gates apart in
                   ///< altitude: never flagged against each other.
};

[[nodiscard]] std::string_view to_string(PlantKind kind);

struct PlantedPair {
  std::int32_t a = 0;
  std::int32_t b = 0;
  PlantKind kind = PlantKind::kCritical;
  double dx_a = 0.0;  ///< Planted velocities (dy is 0 for both); the
  double dx_b = 0.0;  ///< closed form holds while both still fly them.
};

struct Fleet {
  atm::airfield::FlightDb db;
  std::vector<PlantedPair> planted;
};

/// The scenario's airfield for `seed`, with its last records replaced by
/// the planted pairs. Planted levels sit above the scenario's altitude
/// range, so no generated aircraft comes within the altitude gate.
[[nodiscard]] Fleet make_fleet(const Workload& workload, std::size_t aircraft,
                               std::uint64_t seed);

/// A fresh, unloaded backend of the workload's shape.
[[nodiscard]] std::unique_ptr<atm::tasks::Backend> make_backend(
    const Workload& workload);

/// The run_pipeline configuration equivalent to the benchmark loop:
/// virtual clock, governor and faults off, the fleet preloaded.
[[nodiscard]] atm::tasks::PipelineConfig make_config(const Workload& workload,
                                                     std::size_t aircraft,
                                                     std::uint64_t seed);

/// The independent path: the sequential reference with brute-force
/// enumeration and the scalar kernel, unsharded.
[[nodiscard]] atm::tasks::PipelineConfig independent_config(
    const atm::tasks::PipelineConfig& cfg);

}  // namespace perfbench
