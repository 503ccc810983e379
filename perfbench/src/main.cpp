// atm_perfbench — the host ATM pipeline benchmark (see ../README.md).
//
//   atm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE] [--aircraft N]
//   atm_perfbench --self-test
//
// One run: generate the workload's fleet from the seed, build its
// backend, run one untimed warm-up round, then whole timed rounds of
// kCyclesPerRound major cycles, each replaying the same cycles from the
// same fleet, until S seconds have passed. Every call's outputs are
// checked; after the rounds the workload's first cycles are compared
// with run_pipeline and with the independent sequential reference path.
// The last line of standard output is one JSON object: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. Reference figures
// (tails, deadline slack, modeled platform time) go to standard error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "executive.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up is timed from here: static initialisation, the first code of
/// the process after the loader.
const Clock::time_point kProcessStart = Clock::now();

/// The paper's period: Task 1's deadline, and Tasks 2+3's (which run in
/// the last period after its Task 1).
constexpr double kPeriodMs = 500.0;

/// High-water resident set of this address space (VmHWM). getrusage's
/// ru_maxrss would also count the parent's footprint before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  std::size_t aircraft = 0;
  bool self_test = false;
};

template <typename T>
bool parse_number(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && p == end;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      ok = parse_number(value, a.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, a.seconds) && a.seconds > 0.0;
    } else if (flag == "--trace") {
      int t = 0;
      ok = parse_number(value, t) && (t == 0 || t == 1);
      a.trace = t == 1;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--aircraft") {
      ok = parse_number(value, a.aircraft) && a.aircraft >= 64;
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  if (!a.self_test && find_workload(a.workload) == nullptr) return std::nullopt;
  return a;
}

void usage() {
  std::cerr << "usage: atm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--aircraft N>=64]\n"
               "       atm_perfbench --self-test\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
}

/// Samples of the untraced (or the traced) rounds. Every round repeats
/// the same calls from the same state, so each call has one sample per
/// round.
struct Samples {
  std::vector<std::vector<CycleTimes>> rounds;

  /// The per-run statistic (README.md, "Steadiness"): each call's fastest
  /// repeat across the rounds, averaged over the calls of one round.
  /// `get(cycle, i)` reads call i of a cycle, `per_cycle` calls each.
  template <typename Get>
  [[nodiscard]] double fastest_repeat(std::size_t per_cycle, Get get) const {
    double sum = 0.0;
    for (std::size_t k = 0; k < kCyclesPerRound; ++k) {
      for (std::size_t i = 0; i < per_cycle; ++i) {
        double best = std::numeric_limits<double>::infinity();
        for (const std::vector<CycleTimes>& r : rounds) {
          best = std::min(best, get(r[k], i));
        }
        sum += best;
      }
    }
    return sum / static_cast<double>(kCyclesPerRound * per_cycle);
  }
  [[nodiscard]] double cycle_ms() const {
    return fastest_repeat(1, [](const CycleTimes& t, std::size_t) {
      return t.cycle_ms;
    });
  }
  [[nodiscard]] double task1_ms() const {
    return fastest_repeat(kPeriods, [](const CycleTimes& t, std::size_t i) {
      return t.task1_ms[i];
    });
  }
  [[nodiscard]] double task23_ms() const {
    return fastest_repeat(1, [](const CycleTimes& t, std::size_t) {
      return t.task23_ms;
    });
  }

  /// Every sample `get` yields, over all rounds (reference figures).
  template <typename Get>
  [[nodiscard]] std::vector<double> all(Get get) const {
    std::vector<double> out;
    for (const std::vector<CycleTimes>& r : rounds) {
      for (const CycleTimes& t : r) get(t, out);
    }
    return out;
  }
};

void print_metric(std::ostream& out, const std::string& name, double value,
                  const std::string& unit, bool& first) {
  out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
      << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int run(const Args& args) {
  const Workload& wl = *find_workload(args.workload);
  const std::size_t n = args.aircraft != 0 ? args.aircraft : wl.aircraft;
  const atm::tasks::PipelineConfig cfg = make_config(wl, n, args.seed);
  const Fleet fleet = make_fleet(wl, n, args.seed);

  CheckLog log;
  Samples untraced, traced;
  atm::airfield::FlightDb prefix_state;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  std::uint64_t attempted = 0, failed = 0, rounds = 0;
  std::unique_ptr<LayerProbe> probe;
  {
    const std::unique_ptr<atm::tasks::Backend> backend = make_backend(wl);
    Executive exe(*backend, fleet, cfg);
    exe.rewind();
    setup_s =
        std::chrono::duration<double>(Clock::now() - kProcessStart).count();

    // Warm-up round: untimed but checked. Its end state is what every
    // timed round must reproduce bit for bit.
    for (int c = 0; c < kCyclesPerRound; ++c) {
      (void)exe.cycle(log, nullptr);
      if (c + 1 == kPrefixCycles) prefix_state = backend->state();
    }
    const atm::airfield::FlightDb round_end = backend->state();

    if (args.trace) probe = std::make_unique<LayerProbe>(cfg, *backend);
    const Clock::time_point stop =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    // Whole rounds until the time is up; a traced run alternates
    // untraced and traced rounds and runs at least one of each.
    do {
      const bool traced_round = probe != nullptr && rounds % 2 == 1;
      std::vector<CycleTimes>& round =
          (traced_round ? traced : untraced).rounds.emplace_back();
      exe.rewind();
      for (int c = 0; c < kCyclesPerRound; ++c) {
        round.push_back(exe.cycle(log, traced_round ? probe.get() : nullptr));
      }
      check_same_state(backend->state(), round_end, "round replay", log);
      ++rounds;
    } while (Clock::now() < stop || (probe != nullptr && rounds < 2));
    rss_mb = peak_rss_mb();
    attempted = exe.calls();
    failed = exe.failed_calls();
  }

  // (f) run_pipeline over the first cycles ends where the loop did.
  {
    const std::unique_ptr<atm::tasks::Backend> backend = make_backend(wl);
    backend->load(fleet.db);
    atm::tasks::PipelineConfig pcfg = cfg;
    pcfg.major_cycles = kPrefixCycles;
    std::ostringstream jsonl;
    atm::obs::JsonlTraceSink sink(jsonl);
    if (probe != nullptr) pcfg.trace = &sink;
    const atm::tasks::PipelineResult result =
        atm::tasks::run_pipeline(*backend, pcfg);
    if (result.deadlines().total_skipped() != 0) {
      log.fail("(f) run_pipeline skipped a task on the virtual clock");
    }
    check_same_state(backend->state(), prefix_state, "(f) run_pipeline", log);
    if (probe != nullptr) {
      const std::string text = jsonl.str();
      const auto lines =
          static_cast<double>(std::count(text.begin(), text.end(), '\n'));
      probe->set_obs(lines / kPrefixCycles,
                     static_cast<double>(text.size()) / kPrefixCycles);
    }
  }

  // (e) The sequential reference, brute force, scalar kernel, from the
  // same fleet and seed, reaches the same state (and passes (a)-(d)).
  {
    atm::tasks::ReferenceBackend reference;
    const atm::tasks::PipelineConfig icfg = independent_config(cfg);
    Executive exe(reference, fleet, icfg);
    exe.rewind();
    for (int c = 0; c < kPrefixCycles; ++c) (void)exe.cycle(log, nullptr);
    check_same_state(reference.state(), prefix_state,
                     "(e) independent reference path", log);
  }

  for (const std::string& m : log.messages()) std::cerr << "CHECK " << m << "\n";
  const bool correct = log.count() == 0;

  // Reference figures, not gated: tails, deadline slack at the paper's
  // period, and the modeled platform time beside host wall time.
  const Samples& s = probe != nullptr ? traced : untraced;
  const auto task1 = s.all([](const CycleTimes& t, std::vector<double>& o) {
    o.insert(o.end(), t.task1_ms.begin(), t.task1_ms.end());
  });
  const auto task23 = s.all([](const CycleTimes& t, std::vector<double>& o) {
    o.push_back(t.task23_ms);
  });
  const auto last_period =
      s.all([](const CycleTimes& t, std::vector<double>& o) {
        o.push_back(t.task1_ms.back() + t.task23_ms);
      });
  const auto task1_modeled =
      s.all([](const CycleTimes& t, std::vector<double>& o) {
        o.insert(o.end(), t.task1_modeled_ms.begin(), t.task1_modeled_ms.end());
      });
  const auto task23_modeled =
      s.all([](const CycleTimes& t, std::vector<double>& o) {
        o.push_back(t.task23_modeled_ms);
      });
  const auto cycle = s.all([](const CycleTimes& t, std::vector<double>& o) {
    o.push_back(t.cycle_ms);
  });
  std::cerr << "{\"workload\": \"" << wl.name << "\", \"seed\": " << args.seed
            << ", \"aircraft\": " << n << ", \"threads\": "
            << (wl.mimd ? pool_workers() + 1 : 1) << ", \"rounds\": " << rounds
            << ", \"cycles\": " << cycle.size()
            << ", \"task1_samples\": " << task1.size()
            << ", \"cycle_ms_p50\": " << quantile(cycle, 0.5)
            << ", \"task1_ms_p50\": " << quantile(task1, 0.5)
            << ", \"task23_ms_p50\": " << quantile(task23, 0.5)
            << ", \"task1_ms_p99\": " << quantile(task1, 0.99)
            << ", \"task1_ms_max\": " << quantile(task1, 1.0)
            << ", \"task23_ms_p99\": " << quantile(task23, 0.99)
            << ", \"task23_ms_max\": " << quantile(task23, 1.0)
            << ", \"task1_min_slack_ms\": " << kPeriodMs - quantile(task1, 1.0)
            << ", \"task23_min_slack_ms\": "
            << kPeriodMs - quantile(last_period, 1.0)
            << ", \"task1_modeled_ms_p50\": " << quantile(task1_modeled, 0.5)
            << ", \"task23_modeled_ms_p50\": " << quantile(task23_modeled, 0.5)
            << "}\n";

  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  if (probe != nullptr) {
    probe->time_pool(wl.mimd ? pool_workers() : 1);
    const double overhead = traced.cycle_ms() / untraced.cycle_ms();
    for (const Metric& m : probe->metrics(overhead)) {
      print_metric(out, m.name, m.value, m.unit, first);
    }
    if (!args.spans.empty()) probe->write_spans(args.spans, std::cerr);
  } else {
    print_metric(out, "cycle_ms", untraced.cycle_ms(), "ms", first);
    print_metric(out, "task1_ms", untraced.task1_ms(), "ms", first);
    print_metric(out, "task23_ms", untraced.task23_ms(), "ms", first);
    print_metric(out, "setup_s", setup_s, "s", first);
    print_metric(out, "peak_rss_mb", rss_mb, "MB", first);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int self_test();

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  return args->self_test ? self_test() : run(*args);
}
