#include "workloads.hpp"

#include <sched.h>

#include <algorithm>

#include "src/airfield/setup.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/core/units.hpp"

namespace perfbench {

namespace tasks = atm::tasks;
namespace spatial = atm::core::spatial;

namespace {

Workload make_workload(std::string name, tasks::Scenario scenario,
                       std::size_t aircraft, bool mimd,
                       spatial::BroadphaseMode broadphase,
                       spatial::ShardMode shard) {
  scenario.policy.broadphase = broadphase;
  scenario.policy.shard = shard;
  scenario.policy.sectors_per_axis = 4;
  scenario.policy.kernel = atm::core::kern::KernelMode::kAuto;
  // The governor reads wall time and would make a run's work depend on
  // the host; fault injection stays off so every seed's radar is clean
  // apart from the scenario's own noise and dropouts.
  scenario.policy.governor = {};
  scenario.policy.faults = {};
  return {std::move(name), std::move(scenario), aircraft, mimd};
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      make_workload("enroute-3k-serial", tasks::dense_en_route(), 3000,
                    /*mimd=*/false, spatial::BroadphaseMode::kGrid,
                    spatial::ShardMode::kNone),
      make_workload("enroute-6k-sectors", tasks::dense_en_route(), 6000,
                    /*mimd=*/true, spatial::BroadphaseMode::kGrid,
                    spatial::ShardMode::kSectors),
      make_workload("dulles-4k-brute", tasks::dulles_1972(), 4000,
                    /*mimd=*/true, spatial::BroadphaseMode::kBruteForce,
                    spatial::ShardMode::kNone),
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

unsigned pool_workers() { return std::max(1u, usable_cpus() - 1); }

std::string_view to_string(PlantKind kind) {
  switch (kind) {
    case PlantKind::kCritical:
      return "critical";
    case PlantKind::kConflict:
      return "conflict";
    case PlantKind::kDiverging:
      return "diverging";
    case PlantKind::kGateSeparated:
      return "gate-separated";
  }
  return "?";
}

Fleet make_fleet(const Workload& workload, std::size_t aircraft,
                 std::uint64_t seed) {
  const tasks::Scenario& s = workload.scenario;
  Fleet fleet{atm::airfield::make_airfield(aircraft, seed, s.setup), {}};

  constexpr PlantKind kKinds[] = {PlantKind::kCritical, PlantKind::kConflict,
                                  PlantKind::kDiverging,
                                  PlantKind::kGateSeparated};
  constexpr int kPairs = 8;
  const double gate = s.task23.altitude_gate_feet;
  const double band = s.task23.band_nm;
  // Mid-range speed of the scenario, in nm/period.
  const double v = 0.5 * (s.setup.min_speed_knots + s.setup.max_speed_knots) /
                   atm::core::kPeriodsPerHour;
  // Band-entry times chosen far from the critical and horizon thresholds,
  // so radar noise moving the pair by a few nm cannot change the verdict.
  const double t_critical = s.task23.critical_periods / 3.0;
  const double t_conflict =
      std::min(4.0 * s.task23.critical_periods, 0.5 * s.task23.horizon_periods);

  for (int k = 0; k < kPairs; ++k) {
    const PlantKind kind = kKinds[k % 4];
    PlantedPair pair;
    pair.kind = kind;
    pair.a = static_cast<std::int32_t>(aircraft - 2 * kPairs + 2 * k);
    pair.b = pair.a + 1;
    // Private levels: 3 gates above the fleet and 3 gates apart, so the
    // gate-separated partner (1.5 gates up) is still more than a gate
    // from every other level.
    const double level = s.setup.max_altitude_feet + 3.0 * gate * (k + 1);
    double half_sep = 5.0;  // diverging: 10 nm apart, opening
    double va = -v;
    if (kind != PlantKind::kDiverging) {
      const double t =
          kind == PlantKind::kConflict ? t_conflict : t_critical;
      half_sep = 0.5 * (band + 2.0 * v * t);
      va = v;  // a (west) flies east into b (east), which flies west
    }
    const double y = -60.0 + 15.0 * k;
    const auto place = [&](std::int32_t id, double x, double dx, double alt) {
      const auto i = static_cast<std::size_t>(id);
      fleet.db.x[i] = x;
      fleet.db.y[i] = y;
      fleet.db.dx[i] = dx;
      fleet.db.dy[i] = 0.0;
      fleet.db.alt[i] = alt;
    };
    place(pair.a, -half_sep, va, level);
    place(pair.b, half_sep, -va,
          kind == PlantKind::kGateSeparated ? level + 1.5 * gate : level);
    pair.dx_a = va;
    pair.dx_b = -va;
    fleet.planted.push_back(pair);
  }
  return fleet;
}

std::unique_ptr<tasks::Backend> make_backend(const Workload& workload) {
  if (workload.mimd) {
    return std::make_unique<tasks::MimdBackend>(atm::mimd::paper_xeon_spec(),
                                                pool_workers());
  }
  return std::make_unique<tasks::ReferenceBackend>();
}

tasks::PipelineConfig make_config(const Workload& workload,
                                  std::size_t aircraft, std::uint64_t seed) {
  tasks::PipelineConfig cfg =
      tasks::make_pipeline_config(workload.scenario, kCyclesPerRound, seed);
  cfg.aircraft = aircraft;
  cfg.clock_mode = tasks::ClockMode::kVirtual;
  cfg.preloaded = true;
  return cfg;
}

tasks::PipelineConfig independent_config(const tasks::PipelineConfig& cfg) {
  tasks::PipelineConfig ind = cfg;
  ind.task1.broadphase = ind.task23.broadphase =
      spatial::BroadphaseMode::kBruteForce;
  ind.task1.shard = ind.task23.shard = spatial::ShardMode::kNone;
  ind.task1.kernel = ind.task23.kernel = atm::core::kern::KernelMode::kScalar;
  return ind;
}

}  // namespace perfbench
