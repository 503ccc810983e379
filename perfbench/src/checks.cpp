#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/core/units.hpp"

namespace perfbench {

using atm::airfield::FlightDb;

namespace {

constexpr std::size_t kKeptMessages = 8;
constexpr double kRelTol = 1e-12;

bool close_rel(double got, double want) {
  return std::fabs(got - want) <= kRelTol * std::fabs(want);
}

bool velocity_changed(const FlightDb& before, const FlightDb& after,
                      std::size_t i) {
  return before.dx[i] != after.dx[i] || before.dy[i] != after.dy[i];
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

void CheckLog::fail(std::string message) {
  ++count_;
  if (messages_.size() < kKeptMessages) messages_.push_back(std::move(message));
}

std::size_t check_correlation(const atm::airfield::RadarFrame& frame,
                              CheckLog& log) {
  std::size_t matched = 0;
  for (std::size_t r = 0; r < frame.size(); ++r) {
    const std::int32_t id = frame.rmatch_with[r];
    if (id < 0) continue;
    ++matched;
    if (id != frame.truth[r]) {
      std::ostringstream m;
      m << "(a) radar " << r << " correlated to aircraft " << id
        << ", truth is " << frame.truth[r];
      log.fail(m.str());
    }
  }
  return matched;
}

void check_conserved(const FlightDb& initial, const FlightDb& now,
                     CheckLog& log) {
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const double s0 = std::hypot(initial.dx[i], initial.dy[i]);
    const double s1 = std::hypot(now.dx[i], now.dy[i]);
    if (!close_rel(s1, s0) || !close_rel(now.alt[i], initial.alt[i])) {
      std::ostringstream m;
      m.precision(17);
      m << "(b) aircraft " << i << " speed " << s0 << " -> " << s1
        << ", altitude " << initial.alt[i] << " -> " << now.alt[i];
      log.fail(m.str());
    }
  }
}

void check_task23_counts(const FlightDb& before, const FlightDb& after,
                         const atm::tasks::Task23Stats& stats,
                         CheckLog& log) {
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (velocity_changed(before, after, i)) ++changed;
  }
  const bool ok = changed == stats.resolved &&
                  stats.resolved + stats.unresolved == stats.critical &&
                  stats.critical <= stats.conflicts &&
                  stats.conflicts <= stats.aircraft &&
                  stats.aircraft == after.size();
  if (!ok) {
    std::ostringstream m;
    m << "(c) velocities changed " << changed << ", resolved "
      << stats.resolved << ", unresolved " << stats.unresolved
      << ", critical " << stats.critical << ", conflicts " << stats.conflicts
      << ", aircraft " << stats.aircraft << " of " << after.size();
    log.fail(m.str());
  }
}

std::vector<PlantedVerdict> predict_planted(
    const FlightDb& before, const std::vector<PlantedPair>& planted,
    const atm::tasks::Task23Params& params) {
  std::vector<PlantedVerdict> out;
  for (const PlantedPair& pair : planted) {
    PlantedVerdict v;
    v.pair = pair;
    const auto a = static_cast<std::size_t>(pair.a);
    const auto b = static_cast<std::size_t>(pair.b);
    v.checkable = before.dx[a] == pair.dx_a && before.dy[a] == 0.0 &&
                  before.dx[b] == pair.dx_b && before.dy[b] == 0.0;
    if (v.checkable) {
      // Both fly along x, so the y separation is fixed and the pair
      // closes (or opens) along x at |dx_b - dx_a|.
      const double sep = before.x[b] - before.x[a];
      const double closing = -(before.dx[b] - before.dx[a]) *
                             (sep < 0.0 ? -1.0 : 1.0);
      const bool gate_ok = std::fabs(before.alt[b] - before.alt[a]) <
                           params.altitude_gate_feet;
      const bool lane_ok =
          std::fabs(before.y[b] - before.y[a]) <= params.band_nm;
      if (gate_ok && lane_ok) {
        if (std::fabs(sep) <= params.band_nm) {
          v.conflict = true;  // already inside the band
        } else if (closing > 0.0) {
          v.time_min = (std::fabs(sep) - params.band_nm) / closing;
          v.conflict = v.time_min < params.horizon_periods;
        }
        v.critical = v.conflict && v.time_min < params.critical_periods;
      }
    }
    out.push_back(v);
  }
  return out;
}

void check_planted(const std::vector<PlantedVerdict>& verdicts,
                   const FlightDb& before, const FlightDb& after,
                   const atm::tasks::Task23Params& params, CheckLog& log) {
  for (const PlantedVerdict& v : verdicts) {
    if (!v.checkable) continue;
    for (const auto& [self, partner] :
         {std::pair{v.pair.a, v.pair.b}, std::pair{v.pair.b, v.pair.a}}) {
      const auto i = static_cast<std::size_t>(self);
      const bool moved = velocity_changed(before, after, i);
      const bool flagged = after.col[i] != 0 && after.col_with[i] == partner;
      // time_till starts each run at kCriticalTimePeriods and only ever
      // takes a sooner entry time (FlightDb::reset_collision_state).
      const double till =
          std::min(v.time_min, atm::core::kCriticalTimePeriods);
      const bool on_time =
          std::fabs(after.time_till[i] - till) <= 1e-9 * std::max(1.0, till);
      bool ok = false;
      if (!v.conflict) {
        ok = after.col[i] == 0 && !moved;
      } else if (v.critical) {
        // Resolved (new path, flags cleared) or unresolved (flags kept).
        ok = moved || (flagged && on_time &&
                       after.time_till[i] < params.critical_periods);
      } else {
        ok = !moved && flagged && on_time;
      }
      if (!ok) {
        std::ostringstream m;
        m.precision(12);
        m << "(d) planted " << to_string(v.pair.kind) << " aircraft " << self
          << ": predicted conflict=" << v.conflict
          << " critical=" << v.critical << " t=" << v.time_min
          << ", got col=" << int{after.col[i]}
          << " col_with=" << after.col_with[i]
          << " time_till=" << after.time_till[i] << " moved=" << moved;
        log.fail(m.str());
      }
    }
  }
  for (std::size_t i = 0; i < after.size(); ++i) {
    const std::int32_t j = after.col_with[i];
    if (after.col[i] == 0 || j < 0) continue;
    const double d = before.alt[i] - before.alt[static_cast<std::size_t>(j)];
    if (std::fabs(d) >= params.altitude_gate_feet) {
      std::ostringstream m;
      m << "(d) aircraft " << i << " flagged against " << j << " "
        << std::fabs(d) << " ft away (gate " << params.altitude_gate_feet
        << " ft)";
      log.fail(m.str());
    }
  }
}

void check_same_state(const FlightDb& got, const FlightDb& want,
                      const std::string& what, CheckLog& log) {
  if (got.size() != want.size()) {
    log.fail(what + ": fleet size differs");
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got.x[i], want.x[i]) || !same_bits(got.y[i], want.y[i]) ||
        !same_bits(got.dx[i], want.dx[i]) ||
        !same_bits(got.dy[i], want.dy[i]) ||
        !same_bits(got.alt[i], want.alt[i])) {
      std::ostringstream m;
      m.precision(17);
      m << what << ": aircraft " << i << " at (" << got.x[i] << ", "
        << got.y[i] << ") v (" << got.dx[i] << ", " << got.dy[i]
        << "), expected (" << want.x[i] << ", " << want.y[i] << ") v ("
        << want.dx[i] << ", " << want.dy[i] << ")";
      log.fail(m.str());
      return;
    }
  }
}

}  // namespace perfbench
