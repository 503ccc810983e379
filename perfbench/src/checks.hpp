// Output checks run on every benchmark run. None compares against stored
// output: each is ground truth the inputs carry (radar truth, planted
// geometry), a conservation law, or an independent path through the
// program.
#pragma once

#include <string>
#include <vector>

#include "src/airfield/flight_db.hpp"
#include "src/airfield/radar.hpp"
#include "src/atm/task_types.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Collects check failures. Each message names the check letter of
/// README.md ("(a)" .. "(f)").
class CheckLog {
 public:
  void fail(std::string message);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// The first few messages (the rest are only counted).
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> messages_;
};

/// (a) Every radar Task 1 correlated belongs to that aircraft according
/// to the frame's ground truth. Returns the number of correlated radars.
std::size_t check_correlation(const atm::airfield::RadarFrame& frame,
                              CheckLog& log);

/// (b) Every aircraft's speed and altitude equal the initial fleet's, to
/// within 1e-12 relative.
void check_conserved(const atm::airfield::FlightDb& initial,
                     const atm::airfield::FlightDb& now, CheckLog& log);

/// (c) One Tasks 2+3 call: the aircraft whose velocity changed number
/// `resolved`, and resolved + unresolved == critical <= conflicts <=
/// aircraft.
void check_task23_counts(const atm::airfield::FlightDb& before,
                         const atm::airfield::FlightDb& after,
                         const atm::tasks::Task23Stats& stats,
                         CheckLog& log);

/// What detection must report for one planted pair, in closed form from
/// its separation, closing speed and the band.
struct PlantedVerdict {
  PlantedPair pair;
  bool checkable = false;  ///< Both still fly their planted velocities.
  bool conflict = false;
  bool critical = false;
  double time_min = 0.0;  ///< Band entry time, periods.
};

/// (d, before the call) Closed-form verdicts for every planted pair on
/// the state a Tasks 2+3 call is about to see.
[[nodiscard]] std::vector<PlantedVerdict> predict_planted(
    const atm::airfield::FlightDb& before,
    const std::vector<PlantedPair>& planted,
    const atm::tasks::Task23Params& params);

/// (d, after the call) Each checkable planted pair is reported as
/// predicted, and no aircraft is flagged against a partner further away
/// than the altitude gate.
void check_planted(const std::vector<PlantedVerdict>& verdicts,
                   const atm::airfield::FlightDb& before,
                   const atm::airfield::FlightDb& after,
                   const atm::tasks::Task23Params& params, CheckLog& log);

/// (e)/(f) Bit-for-bit equality of positions, velocities and altitudes.
void check_same_state(const atm::airfield::FlightDb& got,
                      const atm::airfield::FlightDb& want,
                      const std::string& what, CheckLog& log);

}  // namespace perfbench
