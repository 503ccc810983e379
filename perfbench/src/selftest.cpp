// Self-test of the output checks: run one clean cycle of a small fleet,
// then corrupt one output per check and show that the check reports it
// (and that it reports nothing on the clean output).
#include <iostream>
#include <string>

#include "checks.hpp"
#include "executive.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace airfield = atm::airfield;

constexpr std::size_t kAircraft = 600;
constexpr std::uint64_t kSeed = 7;

struct Case {
  std::string check;
  std::string corruption;
  std::size_t clean = 0;
  std::size_t corrupted = 0;
};

}  // namespace

int self_test() {
  const Workload& wl = *find_workload("enroute-3k-serial");
  const atm::tasks::PipelineConfig cfg = make_config(wl, kAircraft, kSeed);
  const Fleet fleet = make_fleet(wl, kAircraft, kSeed);
  const auto backend = make_backend(wl);
  backend->load(fleet.db);
  atm::core::Rng rng = radar_stream(kSeed);
  std::vector<Case> cases;

  // (a) one radar correlated to the wrong aircraft.
  airfield::RadarFrame frame = backend->generate_radar(rng, cfg.radar, nullptr);
  (void)backend->run_task1(frame, cfg.task1);
  {
    Case c{"(a) correlation vs truth", "one radar matched to the wrong aircraft"};
    CheckLog clean, bad;
    (void)check_correlation(frame, clean);
    airfield::RadarFrame wrong = frame;
    for (std::size_t r = 0; r < wrong.size(); ++r) {
      if (wrong.rmatch_with[r] >= 0) {
        wrong.rmatch_with[r] =
            (wrong.rmatch_with[r] + 1) % static_cast<std::int32_t>(kAircraft);
        break;
      }
    }
    (void)check_correlation(wrong, bad);
    c.clean = clean.count();
    c.corrupted = bad.count();
    cases.push_back(c);
  }

  // (b) one velocity rescaled so its speed changes.
  {
    Case c{"(b) speed and altitude conserved", "one velocity scaled by 1.001"};
    CheckLog clean, bad;
    check_conserved(fleet.db, backend->state(), clean);
    airfield::FlightDb scaled = backend->state();
    scaled.dx[3] *= 1.001;
    scaled.dy[3] *= 1.001;
    check_conserved(fleet.db, scaled, bad);
    c.clean = clean.count();
    c.corrupted = bad.count();
    cases.push_back(c);
  }

  // (c) and (d) on one Tasks 2+3 call.
  const airfield::FlightDb before = backend->state();
  const auto verdicts = predict_planted(before, fleet.planted, cfg.task23);
  const atm::tasks::Task23Result r23 = backend->run_task23(cfg.task23);
  {
    Case c{"(c) Tasks 2+3 counts", "resolved count off by one"};
    CheckLog clean, bad;
    check_task23_counts(before, backend->state(), r23.stats, clean);
    atm::tasks::Task23Stats off = r23.stats;
    ++off.resolved;
    check_task23_counts(before, backend->state(), off, bad);
    c.clean = clean.count();
    c.corrupted = bad.count();
    cases.push_back(c);
  }
  {
    Case c{"(d) planted encounters", "one planted encounter dropped"};
    CheckLog clean, bad;
    check_planted(verdicts, before, backend->state(), cfg.task23, clean);
    airfield::FlightDb dropped = backend->state();
    for (const PlantedVerdict& v : verdicts) {
      if (v.checkable && v.conflict && !v.critical) {
        const auto a = static_cast<std::size_t>(v.pair.a);
        dropped.col[a] = 0;
        dropped.col_with[a] = airfield::kNone;
        break;
      }
    }
    check_planted(verdicts, before, dropped, cfg.task23, bad);
    c.clean = clean.count();
    c.corrupted = bad.count();
    cases.push_back(c);
  }

  // (e) one aircraft moved in the independent-path comparison.
  {
    Case c{"(e) independent path", "one aircraft moved by 1e-9 nm"};
    CheckLog clean, bad;
    const airfield::FlightDb& state = backend->state();
    check_same_state(state, state, "(e)", clean);
    airfield::FlightDb moved = state;
    moved.x[11] += 1e-9;
    check_same_state(moved, state, "(e)", bad);
    c.clean = clean.count();
    c.corrupted = bad.count();
    cases.push_back(c);
  }

  bool ok = true;
  for (const Case& c : cases) {
    const bool pass = c.clean == 0 && c.corrupted > 0;
    ok = ok && pass;
    std::cout << (pass ? "ok   " : "FAIL ") << c.check << ": clean output "
              << c.clean << " failures; " << c.corruption << ": "
              << c.corrupted << " failures\n";
  }
  std::cout << (ok ? "self-test passed" : "self-test FAILED") << std::endl;
  return ok ? 0 : 1;
}
