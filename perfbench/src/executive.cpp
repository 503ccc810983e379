#include "executive.hpp"

#include "tracer.hpp"

namespace perfbench {

atm::core::Rng radar_stream(std::uint64_t seed) {
  return atm::core::Rng(seed ^ 0x4ADA1257A3ABCDEFULL);
}

Executive::Executive(atm::tasks::Backend& backend, const Fleet& fleet,
                     const atm::tasks::PipelineConfig& cfg)
    : backend_(backend),
      fleet_(fleet),
      cfg_(cfg),
      radar_rng_(radar_stream(cfg.seed)) {}

void Executive::rewind() {
  backend_.load(fleet_.db);
  radar_rng_ = radar_stream(cfg_.seed);
}

CycleTimes Executive::cycle(CheckLog& log, LayerProbe* probe) {
  CycleTimes times;
  if (probe != nullptr) probe->cycle_begin();
  for (int period = 0; period < kPeriods; ++period) {
    if (probe != nullptr) probe->period_begin();
    const Clock::time_point t0 = Clock::now();
    atm::airfield::RadarFrame frame =
        backend_.generate_radar(radar_rng_, cfg_.radar, nullptr);
    const Clock::time_point t1 = Clock::now();
    if (probe != nullptr) {
      probe->span("airfield.generate_radar", t0, t1);
      probe->before_task1(backend_.state(), frame, period);
    }

    const Clock::time_point t2 = Clock::now();
    const atm::tasks::Task1Result r1 = backend_.run_task1(frame, cfg_.task1);
    const Clock::time_point t3 = Clock::now();
    const std::size_t failures = log.count();
    const std::size_t matched = check_correlation(frame, log);
    if (matched == 0) log.fail("(a) Task 1 correlated no radar at all");
    ++calls_;
    if (log.count() != failures) ++failed_calls_;
    if (probe != nullptr) probe->after_task1(t2, t3, r1.stats);

    const Clock::time_point t4 = Clock::now();
    atm::airfield::apply_reentry_all(backend_.mutable_state());
    const Clock::time_point t5 = Clock::now();
    if (probe != nullptr) probe->span("airfield.apply_reentry_all", t4, t5);

    times.task1_ms[static_cast<std::size_t>(period)] = ms_between(t2, t3);
    times.task1_modeled_ms[static_cast<std::size_t>(period)] = r1.modeled_ms;
    times.cycle_ms +=
        ms_between(t0, t1) + ms_between(t2, t3) + ms_between(t4, t5);
    if (probe != nullptr) probe->period_end();
  }

  const atm::airfield::FlightDb before = backend_.state();
  const std::vector<PlantedVerdict> verdicts =
      predict_planted(before, fleet_.planted, cfg_.task23);
  if (probe != nullptr) probe->before_task23(before);
  const Clock::time_point t0 = Clock::now();
  const atm::tasks::Task23Result r23 = backend_.run_task23(cfg_.task23);
  const Clock::time_point t1 = Clock::now();
  const std::size_t failures = log.count();
  check_task23_counts(before, backend_.state(), r23.stats, log);
  check_planted(verdicts, before, backend_.state(), cfg_.task23, log);
  check_conserved(fleet_.db, backend_.state(), log);
  ++calls_;
  if (log.count() != failures) ++failed_calls_;
  if (probe != nullptr) {
    probe->after_task23(t0, t1, r23.stats);
    probe->cycle_end();
  }

  times.task23_ms = ms_between(t0, t1);
  times.task23_modeled_ms = r23.modeled_ms;
  times.cycle_ms += times.task23_ms;
  return times;
}

}  // namespace perfbench
