#include "tracer.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <utility>

#include "src/atm/reference/collision.hpp"
#include "src/mimd/thread_pool.hpp"

namespace perfbench {

namespace kern = atm::core::kern;

namespace {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

LayerProbe::LayerProbe(const atm::tasks::PipelineConfig& cfg,
                       atm::tasks::Backend& backend)
    : cfg_(cfg),
      backend_(backend),
      mimd_(dynamic_cast<const atm::tasks::MimdBackend*>(&backend)),
      kernel_(kern::resolve(cfg.task23.kernel)) {}

std::uint32_t LayerProbe::open(const char* name, std::uint32_t parent) {
  const Clock::time_point now = Clock::now();
  return add(name, parent, now, now);
}

void LayerProbe::close(std::uint32_t id) { spans_[id - 1].t1 = Clock::now(); }

std::uint32_t LayerProbe::add(const char* name, std::uint32_t parent,
                              Clock::time_point t0, Clock::time_point t1) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  const std::uint32_t root = parent == 0 ? id : spans_[parent - 1].root;
  spans_.push_back({id, parent, root, name, t0, t1});
  return id;
}

void LayerProbe::cycle_begin() {
  backend_.set_trace_sink(&sink_);
  cycle_span_ = open("cycle", 0);
}

void LayerProbe::cycle_end() {
  close(cycle_span_);
  cycle_span_ = 0;
  ++cycles_;
  backend_.set_trace_sink(nullptr);
  sink_.clear();
}

void LayerProbe::period_begin() { period_span_ = open("period", cycle_span_); }

void LayerProbe::period_end() {
  close(period_span_);
  period_span_ = 0;
}

void LayerProbe::span(const char* name, Clock::time_point t0,
                      Clock::time_point t1) {
  add(name, period_span_ != 0 ? period_span_ : cycle_span_, t0, t1);
}

void LayerProbe::before_task1(const atm::airfield::FlightDb& state,
                              const atm::airfield::RadarFrame& frame,
                              int period) {
  const std::size_t n = state.size();
  ex_.resize(n);
  ey_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ex_[i] = state.x[i] + state.dx[i];
    ey_[i] = state.y[i] + state.dy[i];
  }
  const double half = cfg_.task1.box_half_nm;
  Clock::time_point t0 = Clock::now();
  grid_.build(ex_, ey_, {}, 2.0 * half);
  span("spatial.grid_build", t0, Clock::now());

  // The all-pairs box kernel over one frame per cycle (n x radars tests;
  // once per cycle keeps the traced run short).
  if (period != 0) return;
  hits_.resize(n);
  std::uint64_t masked = 0;
  t0 = Clock::now();
  for (std::size_t r = 0; r < frame.size(); ++r) {
    kern::box_test_batch(kernel_, ex_.data(), ey_.data(), n, nullptr,
                         frame.rx[r], frame.ry[r], half, hits_.data(),
                         &masked);
  }
  span("kern.box_batch", t0, Clock::now());
  box_lanes_ += frame.size() * n;
}

void LayerProbe::after_task1(Clock::time_point t0, Clock::time_point t1,
                             const atm::tasks::Task1Stats& stats) {
  span("atm.run_task1", t0, t1);
  ++task1_calls_;
  box_tests_ += stats.box_tests;
  passes_ += static_cast<std::uint64_t>(stats.passes);
  matched_ += stats.matched;
  lanes_masked_ += stats.lanes_masked;
  if (mimd_ != nullptr) {
    regions_ += mimd_->last_work().parallel_regions;
    locked_ops_ += mimd_->last_work().locked_ops;
  }
}

void LayerProbe::before_task23(const atm::airfield::FlightDb& state) {
  const atm::tasks::Task23Params& p = cfg_.task23;
  const std::size_t n = state.size();

  Clock::time_point t0 = Clock::now();
  snap_.gather(state);
  Clock::time_point t1 = Clock::now();
  add("kern.gather", cycle_span_, t0, t1);
  replay_ms_ = ms_between(t0, t1);

  t0 = Clock::now();
  atm::tasks::reference::build_swept_index(state, p, swept_);
  t1 = Clock::now();
  add("spatial.swept_build", cycle_span_, t0, t1);
  replay_ms_ += ms_between(t0, t1);

  // Tasks 2+3 reach (sharded.hpp): band + 2 * max speed * horizon.
  const double reach = p.band_nm + 2.0 * swept_.max_speed() * p.horizon_periods;
  t0 = Clock::now();
  partition_.build(state.x, state.y, {}, reach, p.sectors_per_axis);
  add("spatial.partition_build", cycle_span_, t0, Clock::now());

  // Detection alone: every aircraft's scan on its current path, through
  // the workload's own broadphase, with no trial rotation.
  const atm::core::spatial::SweptIndex* index =
      p.broadphase == atm::core::spatial::BroadphaseMode::kGrid ? &swept_
                                                               : nullptr;
  const kern::SoaView view = snap_.view();
  atm::tasks::reference::ScanWork work;
  atm::tasks::reference::ScanScratch scratch;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    (void)atm::tasks::reference::scan_candidates(
        view, nullptr, static_cast<std::int32_t>(i), state.x[i], state.y[i],
        state.alt[i], state.dx[i], state.dy[i], p, kernel_, work,
        /*stop_at_critical=*/false, index, scratch);
  }
  t1 = Clock::now();
  add("reference.detect", cycle_span_, t0, t1);
  replay_ms_ += ms_between(t0, t1);
  detect_candidates_ += work.pair_candidates;

  // Swept-index pruning against all pairs, whatever the workload uses.
  for (std::size_t i = 0; i < n; ++i) {
    swept_.for_each_candidate(state.x[i], state.y[i], state.alt[i],
                              std::hypot(state.dx[i], state.dy[i]),
                              [&](std::size_t j) {
                                swept_candidates_ += j != i ? 1 : 0;
                                return false;
                              });
  }
  brute_candidates_ += n * (n - 1);

  // The band kernel alone over every lane of the state.
  tmin_.resize(n);
  flags_.resize(n);
  const kern::BandParams band{p.band_nm, p.horizon_periods,
                              p.altitude_gate_feet};
  std::uint64_t masked = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    kern::band_intersect_batch(kernel_, view, nullptr, n, state.x[i],
                               state.y[i], state.alt[i], state.dx[i],
                               state.dy[i], band, tmin_.data(),
                               flags_.data(), &masked);
  }
  add("kern.band_batch", cycle_span_, t0, Clock::now());
  band_lanes_ += n * n;
}

void LayerProbe::after_task23(Clock::time_point t0, Clock::time_point t1,
                              const atm::tasks::Task23Stats& stats) {
  add("atm.run_task23", cycle_span_, t0, t1);
  ++task23_calls_;
  pair_candidates_ += stats.pair_candidates;
  pair_tests_ += stats.pair_tests;
  rescans_ += stats.rescans;
  halo_ += stats.halo_candidates;
  aircraft_ += stats.aircraft;
  lanes_masked_ += stats.lanes_masked;
  resolve_ms_.push_back(ms_between(t0, t1) - replay_ms_);
  if (mimd_ != nullptr) {
    regions_ += mimd_->last_work().parallel_regions;
    locked_ops_ += mimd_->last_work().locked_ops;
  }
  // Per-sector candidate counters the sharded backends publish.
  std::uint64_t max = 0, sum = 0, sectors = 0;
  for (const atm::obs::TraceEvent& e : sink_.events()) {
    if (e.kind != atm::obs::EventKind::kCounter ||
        e.name != "task23.sector_candidates") {
      continue;
    }
    max = std::max(max, e.value);
    sum += e.value;
    ++sectors;
  }
  if (sectors > 0) {
    sector_imbalance_.push_back(ratio(static_cast<double>(max),
                                      static_cast<double>(sum) /
                                          static_cast<double>(sectors)));
  }
}

void LayerProbe::time_pool(unsigned workers) {
  atm::mimd::ThreadPool pool(workers);
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  constexpr int kForks = 2000;
  constexpr int kItemRuns = 5;
  constexpr std::size_t kItems = std::size_t{1} << 20;
  std::vector<double> fork_us;
  for (int k = 0; k < kForks; ++k) {
    const Clock::time_point t0 = Clock::now();
    pool.parallel_for(0, workers + 1, 1, noop);
    const Clock::time_point t1 = Clock::now();
    add("mimd.fork_join", 0, t0, t1);
    fork_us.push_back(1e3 * ms_between(t0, t1));
  }
  std::vector<double> item_ns;
  for (int k = 0; k < kItemRuns; ++k) {
    const Clock::time_point t0 = Clock::now();
    pool.parallel_for(0, kItems, 64, noop);
    const Clock::time_point t1 = Clock::now();
    add("mimd.items", 0, t0, t1);
    item_ns.push_back(1e6 * ms_between(t0, t1) / static_cast<double>(kItems));
  }
  fork_join_us_ = median(fork_us);
  item_ns_ = median(item_ns);
}

void LayerProbe::set_obs(double events_per_cycle, double bytes_per_cycle) {
  events_per_cycle_ = events_per_cycle;
  bytes_per_cycle_ = bytes_per_cycle;
}

std::vector<double> LayerProbe::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(ms_between(s.t0, s.t1));
  }
  return out;
}

double LayerProbe::total_ms(const char* name) const {
  double sum = 0.0;
  for (double d : durations_ms(name)) sum += d;
  return sum;
}

std::vector<Metric> LayerProbe::metrics(double trace_overhead) const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double t1 = d(task1_calls_);
  const double t23 = d(task23_calls_);
  const double cycles = d(cycles_);
  return {
      {"airfield.radar_ms", median(durations_ms("airfield.generate_radar")),
       "ms"},
      {"airfield.reentry_ms",
       median(durations_ms("airfield.apply_reentry_all")), "ms"},
      {"atm.task1.box_tests", ratio(d(box_tests_), t1), "tests/call"},
      {"atm.task1.passes", ratio(d(passes_), t1), "passes/call"},
      {"atm.task1.useful_ratio", ratio(d(matched_), d(box_tests_)), "ratio"},
      {"atm.task23.pair_candidates", ratio(d(pair_candidates_), t23),
       "pairs/cycle"},
      {"atm.task23.gate_pass_ratio",
       ratio(d(pair_tests_), d(pair_candidates_)), "ratio"},
      {"atm.task23.rescans", ratio(d(rescans_), t23), "rescans/cycle"},
      {"atm.task23.rescan_candidate_share",
       ratio(d(pair_candidates_) - d(detect_candidates_), d(pair_candidates_)),
       "ratio"},
      {"reference.detect_ms", median(durations_ms("reference.detect")),
       "ms/cycle"},
      {"reference.resolve_ms", median(resolve_ms_), "ms/cycle"},
      {"spatial.grid_build_ms", median(durations_ms("spatial.grid_build")),
       "ms"},
      {"spatial.swept_build_ms", median(durations_ms("spatial.swept_build")),
       "ms"},
      {"spatial.prune_ratio", ratio(d(swept_candidates_), d(brute_candidates_)),
       "ratio"},
      {"spatial.partition_build_ms",
       median(durations_ms("spatial.partition_build")), "ms"},
      {"kern.gather_ms", median(durations_ms("kern.gather")), "ms"},
      {"kern.band_lanes_per_s",
       ratio(d(band_lanes_), 1e-3 * total_ms("kern.band_batch")), "lanes/s"},
      {"kern.box_tests_per_s",
       ratio(d(box_lanes_), 1e-3 * total_ms("kern.box_batch")), "tests/s"},
      {"kern.lanes_masked_share",
       ratio(d(lanes_masked_),
             d(box_tests_) + d(pair_candidates_) + d(lanes_masked_)),
       "ratio"},
      {"sharded.halo_ratio", ratio(d(halo_), d(aircraft_)), "entries/aircraft"},
      {"sharded.sector_imbalance", median(sector_imbalance_), "ratio"},
      {"mimd.fork_join_us", fork_join_us_, "us"},
      {"mimd.item_ns", item_ns_, "ns"},
      {"mimd.parallel_regions", ratio(d(regions_), cycles), "regions/cycle"},
      {"mimd.locked_ops", ratio(d(locked_ops_), cycles), "ops/cycle"},
      {"obs.events_per_cycle", events_per_cycle_, "events"},
      {"obs.bytes_per_cycle", bytes_per_cycle_, "bytes"},
      {"obs.trace_overhead", trace_overhead, "ratio"},
  };
}

void LayerProbe::write_spans(const std::string& path,
                             std::ostream& summary) const {
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += ms_between(s.t0, s.t1);
  }
  std::ofstream out(path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().t0;
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string_view, Totals> by_name;
  for (const SpanRecord& s : spans_) {
    const double dur = ms_between(s.t0, s.t1);
    const double self = dur - child_ms[s.id];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"root\":" << s.root << ",\"name\":\"" << s.name
        << "\",\"start_ms\":" << ms_between(origin, s.t0)
        << ",\"dur_ms\":" << dur << ",\"self_ms\":" << self << "}\n";
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_ms += dur;
    t.self_ms += self;
  }
  summary << "span                          count    total_ms     self_ms\n";
  for (const auto& [name, t] : by_name) {
    summary << std::left << std::setw(28) << name << std::right
            << std::setw(7) << t.count << std::fixed << std::setprecision(3)
            << std::setw(12) << t.total_ms << std::setw(12) << t.self_ms
            << "\n";
  }
}

}  // namespace perfbench
