// E13 — simulator performance harness and perf-regression gate.
//
// Runs a fixed set of workloads spanning the hot path at three altitudes —
// scheduler micro (schedule/cancel/dispatch), queue micro (ring push/pop and
// random-drop victim erase), the paper's Fig-2 and Fig-6 scenarios
// end-to-end, a 512-flow parking-lot macro run (the Topology layer at
// scale), a 3×3 congestion-control head-to-head matrix (the strategy
// dispatch plus SACK/CUBIC/Vegas code paths), an all-BBR two-way dumbbell
// (the delivery-rate sampler and pacing-timer hot paths), and a 16-point
// Fig-4 sweep — and reports events/sec, packets/sec,
// wall time, and peak RSS as JSON.
//
//   bench_perf_core --out BENCH_core.json              # measure
//   bench_perf_core --baseline BENCH_core.json         # measure + gate
//
// Run with --help for the flags; an unknown flag exits 2, so a typo in a
// CI invocation cannot silently weaken a gate.
//
// The committed baseline lives at the repo root as BENCH_core.json; refresh
// it by re-running on the reference machine (see README "Benchmarking").
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cc_matrix.h"
#include "core/scenarios.h"
#include "core/shard_engine.h"
#include "core/sweep.h"
#include "core/topo_scenarios.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "util/flags.h"

using namespace tcpdyn;

namespace {

struct WorkloadResult {
  std::string name;
  double wall_sec = 0.0;
  std::uint64_t events = 0;       // scheduler events dispatched
  std::uint64_t packets = 0;      // packets through the measured queues
  double sim_seconds = 0.0;       // simulated time covered (0 for micros)
  bool gated = true;              // participates in the regression gate
  std::uint64_t flows = 0;        // flow count (incast workload)
  // Peak-RSS growth during scenario construction divided by flow count —
  // the flyweight metric. Gated downward: growing it past the threshold
  // fails the baseline comparison.
  double bytes_per_flow = 0.0;

  double events_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0;
  }
  double packets_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(packets) / wall_sec : 0.0;
  }
  // The gate metric: events/sec where the workload dispatches events,
  // packets/sec for the queue micro.
  double gate_metric() const {
    return events > 0 ? events_per_sec() : packets_per_sec();
  }
};

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

long peak_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // kilobytes on Linux
}

// ------------------------------------------------------------- workloads

// Scheduler hot loop: a rolling window of timers, one in four cancelled
// before firing — the schedule/cancel churn of per-ACK RTO re-arming.
WorkloadResult run_sched_micro(double scale) {
  WorkloadResult r;
  r.name = "sched_micro";
  const int total = static_cast<int>(2'000'000 * scale);
  sim::Simulator sim;
  const double t0 = now_sec();
  int scheduled = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  sim::EventHandle cancellable;
  while (scheduled < total) {
    const int batch = std::min(1000, total - scheduled);
    for (int i = 0; i < batch; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto dt = sim::Time::microseconds(static_cast<std::int64_t>(
          x % 10'000));
      if (i % 4 == 0) {
        if (cancellable.pending()) cancellable.cancel();
        cancellable = sim.schedule(dt, [] {});
      } else {
        sim.schedule(dt, [] {});
      }
    }
    scheduled += batch;
    sim.run_all();
  }
  r.wall_sec = now_sec() - t0;
  r.events = sim.events_executed();
  return r;
}

// Queue hot loop: drop-tail push/pop plus random-drop offers at capacity
// (which exercises the victim-erase path).
WorkloadResult run_queue_micro(double scale) {
  WorkloadResult r;
  r.name = "queue_micro";
  // Long enough (~0.5 s) that timer noise stays well under the gate
  // threshold even on shared CI cores.
  const int rounds = static_cast<int>(1'200'000 * scale);
  net::DropTailQueue fifo(net::QueueLimit::of(64));
  net::DropTailQueue rdrop(net::QueueLimit::of(20), /*random_drop=*/true,
                           /*seed=*/7);
  net::Packet p;
  p.size_bytes = 500;
  const double t0 = now_sec();
  std::uint64_t moved = 0;
  for (int i = 0; i < rounds; ++i) {
    for (int k = 0; k < 32; ++k) fifo.offer(p);
    for (int k = 0; k < 32; ++k) {
      auto popped = fifo.pop();
      moved += popped.has_value();
    }
    // Keep the random-drop queue saturated so every offer picks a victim.
    const auto res = rdrop.offer(p, /*protect_front=*/true);
    moved += res.accepted;
    if (rdrop.length() >= 20 && (i % 64) == 0) {
      while (!rdrop.empty()) rdrop.pop();
    }
  }
  r.wall_sec = now_sec() - t0;
  r.packets = moved;
  return r;
}

// End-to-end scenario run; events/sec over warmup + duration. Times the
// instrumented event loop only (Experiment::run), not the post-run
// statistical analysis, so the metric tracks the simulator hot path.
WorkloadResult run_scenario_workload(const std::string& name,
                                     core::Scenario scenario) {
  WorkloadResult r;
  r.name = name;
  r.sim_seconds = (scenario.warmup + scenario.duration).sec();
  const double t0 = now_sec();
  core::ExperimentResult result =
      scenario.exp->run(scenario.warmup, scenario.duration);
  r.wall_sec = now_sec() - t0;
  r.events = scenario.exp->sim().events_executed();
  for (const auto& port : result.ports) {
    r.packets += port.counters.arrivals;
  }
  return r;
}

// Congestion-control zoo head-to-head: a 3×3 matrix (NewReno, CUBIC,
// Vegas) of short dumbbell cells. Exercises the strategy dispatch on the
// per-ACK hot path plus the paths the classic scenarios never touch — the
// SACK scoreboard, CUBIC's integer cube-root epochs, and Vegas' per-epoch
// backlog estimate.
WorkloadResult run_cc_matrix_small(double scale) {
  WorkloadResult r;
  r.name = "cc_matrix_small";
  core::CcMatrixParams p;
  p.algos = {tcp::CcAlgorithm::kNewReno, tcp::CcAlgorithm::kCubic,
             tcp::CcAlgorithm::kVegas};
  p.warmup_sec = 10.0 * scale;
  p.duration_sec = 300.0 * scale;
  const double t0 = now_sec();
  const core::CcMatrixResult m = core::run_cc_matrix(p);
  r.wall_sec = now_sec() - t0;
  r.events = m.events;
  r.packets = m.audit.created;
  r.sim_seconds = 9.0 * (p.warmup_sec + p.duration_sec);
  return r;
}

// 100k-session datacenter incast: the million-flow-scale configuration —
// ~100k pending timers staged on the wheel, streaming monitors, per-flow
// traces off — on a 200-wide fan-in with open-loop Poisson session churn.
// Reports events/sec (gated like the other workloads) plus bytes/flow:
// peak-RSS growth across scenario construction divided by the session
// count, gated *upward* so a regression that fattens per-flow state fails
// the baseline comparison.
// Construction is inside the timed region (as in topo512): instantiating
// 100k flows is part of what the API costs.
WorkloadResult run_incast100k(double scale) {
  WorkloadResult r;
  r.name = "incast100k";
  core::IncastParams p;
  p.senders = 200;
  p.flows_per_sender = 500;   // 100'000 sessions
  p.arrival_rate = 10.0;      // per sender: 2'000 sessions/sec aggregate
  p.session_sec = 0.05;
  p.warmup_sec = 5.0 * scale;
  p.duration_sec = 55.0 * scale;
  p.streaming = true;
  p.per_flow_traces = false;
  const long rss_before_kb = peak_rss_kb();
  const double t0 = now_sec();
  core::Scenario sc = core::make_topo_scenario(core::incast_spec(p));
  const long rss_after_kb = peak_rss_kb();
  const std::uint64_t flows =
      static_cast<std::uint64_t>(p.senders) * p.flows_per_sender;
  core::ExperimentResult result = sc.exp->run(sc.warmup, sc.duration);
  r.wall_sec = now_sec() - t0;
  r.events = sc.exp->sim().events_executed();
  for (const auto& port : result.ports) r.packets += port.counters.arrivals;
  r.sim_seconds = (sc.warmup + sc.duration).sec();
  r.flows = flows;
  r.bytes_per_flow = static_cast<double>(rss_after_kb - rss_before_kb) *
                     1024.0 / static_cast<double>(flows);
  return r;
}

// 16-point Fig-4 sweep: the grid shape of the chaos-regime maps. Wall time
// is the interesting number; events are not surfaced across workers.
WorkloadResult run_sweep16(double scale, std::size_t jobs) {
  WorkloadResult r;
  r.name = "sweep16";
  r.gated = false;  // wall-clock only; too machine-dependent to gate
  core::SweepGrid grid(core::parse_grid("tau=0.005;0.01;0.05;0.1,"
                                        "buffer=10;15;20;30"));
  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.seed = 1;
  opts.progress = false;
  core::SweepRunner runner(std::move(grid), opts);
  const double sim_sec = 60.0 * scale;
  const double t0 = now_sec();
  core::SweepTable table = runner.run([&](const core::SweepPoint& pt) {
    core::Scenario sc = core::fig4_twoway(
        pt.value("tau"), static_cast<std::size_t>(pt.value("buffer")));
    sc.warmup = sim::Time::seconds(10.0 * scale);
    sc.duration = sim::Time::seconds(sim_sec);
    core::ScenarioSummary s = core::run_scenario(sc);
    return core::summary_row(pt, s);
  });
  r.wall_sec = now_sec() - t0;
  r.packets = table.rows().size();  // one "packet" per completed point
  r.sim_seconds = 16.0 * (sim_sec + 10.0 * scale);
  return r;
}

// Sharded-scaling tier: the same TopoSpec through ShardedEngine at a given
// shard count. Not baseline-gated (scaling is machine-dependent, and the CI
// perf leg is pinned to one core where parallel shards cannot help); the
// unpinned shard-scaling CI leg gates the s4/s1 ratio via
// --shard-speedup-min instead.
WorkloadResult run_sharded(const std::string& name, const core::TopoSpec& spec,
                           std::size_t shards) {
  WorkloadResult r;
  r.name = name;
  r.gated = false;
  const double t0 = now_sec();
  core::ShardedEngine engine(spec, shards);
  core::ExperimentResult result = engine.run();
  r.wall_sec = now_sec() - t0;
  r.events = engine.events_executed();
  for (const auto& port : result.ports) r.packets += port.counters.arrivals;
  r.sim_seconds = (spec.warmup + spec.duration).sec();
  return r;
}

// 1000-node Waxman mesh (250 switches + 750 hosts, 1000 Tahoe flows). The
// 5 ms trunk delays give the partitioner a generous lookahead, so this is
// the workload where conservative sharding should pay: the acceptance bar
// is >= 1.5x events/sec at 4 shards over 1 shard on an unpinned machine.
core::TopoSpec waxman1k_spec(double scale) {
  core::WaxmanParams p;
  p.switches = 250;
  p.hosts = 750;
  p.flows = 1000;
  core::TopoSpec spec = core::waxman_spec(p);
  spec.warmup = sim::Time::seconds(2.0 * scale);
  spec.duration = sim::Time::seconds(10.0 * scale);
  spec.monitor_mode = core::MonitorMode::kStreaming;
  spec.per_flow_traces = false;
  return spec;
}

// The incast100k churn spec again, but run through ShardedEngine. A star
// with 100 us access delays is the adversarial case for conservative
// sync — the lookahead is tiny, so barrier rounds dominate and the scaling
// numbers record what that regime costs rather than a win.
core::TopoSpec incast100k_shard_spec(double scale) {
  core::IncastParams p;
  p.senders = 200;
  p.flows_per_sender = 500;
  p.arrival_rate = 10.0;
  p.session_sec = 0.05;
  p.warmup_sec = 5.0 * scale;
  p.duration_sec = 55.0 * scale;
  p.streaming = true;
  p.per_flow_traces = false;
  return core::incast_spec(p);
}

// ------------------------------------------------------------------ JSON

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_report(std::ostream& os, const std::vector<WorkloadResult>& results) {
  os << "{\n"
     << "  \"schema\": \"tcpdyn-bench-core-v1\",\n"
     << "  \"peak_rss_kb\": " << peak_rss_kb() << ",\n"
     << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    os << "    {\"name\": \"" << w.name << "\""
       << ", \"wall_sec\": " << fmt_num(w.wall_sec)
       << ", \"events\": " << w.events
       << ", \"events_per_sec\": " << fmt_num(w.events_per_sec())
       << ", \"packets\": " << w.packets
       << ", \"packets_per_sec\": " << fmt_num(w.packets_per_sec())
       << ", \"sim_seconds\": " << fmt_num(w.sim_seconds)
       << ", \"flows\": " << w.flows
       << ", \"bytes_per_flow\": " << fmt_num(w.bytes_per_flow)
       << ", \"gated\": " << (w.gated ? "true" : "false") << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// Minimal scanner for reports this harness wrote: pulls one numeric field
// out of the workload object whose "name" matches.
bool baseline_field(const std::string& json, const std::string& name,
                    const std::string& field, double* out) {
  const std::string key = "\"name\": \"" + name + "\"";
  const auto at = json.find(key);
  if (at == std::string::npos) return false;
  const auto end = json.find('}', at);
  const std::string obj = json.substr(at, end - at);
  const auto pos = obj.find("\"" + field + "\": ");
  if (pos == std::string::npos) return false;
  *out = std::stod(obj.substr(pos + field.size() + 4));
  return true;
}

bool baseline_metric(const std::string& json, const std::string& name,
                     double* events_per_sec, double* packets_per_sec) {
  return baseline_field(json, name, "events_per_sec", events_per_sec) &&
         baseline_field(json, name, "packets_per_sec", packets_per_sec);
}

int compare_to_baseline(const std::vector<WorkloadResult>& results,
                        const std::string& baseline_path, double threshold) {
  std::ifstream in(baseline_path, std::ios::binary);
  if (!in) {
    std::cerr << "bench_perf_core: cannot read baseline '" << baseline_path
              << "'\n";
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  int failures = 0;
  for (const WorkloadResult& w : results) {
    if (!w.gated) continue;
    double base_eps = 0.0;
    double base_pps = 0.0;
    if (!baseline_metric(json, w.name, &base_eps, &base_pps)) {
      std::cerr << "bench_perf_core: baseline has no workload '" << w.name
                << "' (new workload? refresh the baseline)\n";
      continue;
    }
    const double base = base_eps > 0.0 ? base_eps : base_pps;
    const double cur = w.gate_metric();
    if (base <= 0.0) continue;
    const double ratio = cur / base;
    std::fprintf(stderr, "bench_perf_core: %-12s %12.3g vs baseline %12.3g "
                 "(%+.1f%%)\n",
                 w.name.c_str(), cur, base, (ratio - 1.0) * 100.0);
    if (ratio < 1.0 - threshold) {
      std::fprintf(stderr, "bench_perf_core: FAIL %s regressed by %.1f%% "
                   "(threshold %.0f%%)\n",
                   w.name.c_str(), (1.0 - ratio) * 100.0, threshold * 100.0);
      ++failures;
    }
    // Memory gate (incast): bytes/flow may not grow past the threshold.
    // RSS deltas are coarser than throughput, so give it double headroom.
    double base_bpf = 0.0;
    if (w.bytes_per_flow > 0.0 &&
        baseline_field(json, w.name, "bytes_per_flow", &base_bpf) &&
        base_bpf > 0.0) {
      const double growth = w.bytes_per_flow / base_bpf;
      std::fprintf(stderr,
                   "bench_perf_core: %-12s %12.3g bytes/flow vs baseline "
                   "%12.3g (%+.1f%%)\n",
                   w.name.c_str(), w.bytes_per_flow, base_bpf,
                   (growth - 1.0) * 100.0);
      if (growth > 1.0 + 2.0 * threshold) {
        std::fprintf(stderr,
                     "bench_perf_core: FAIL %s bytes/flow grew by %.1f%% "
                     "(threshold %.0f%%)\n",
                     w.name.c_str(), (growth - 1.0) * 100.0,
                     2.0 * threshold * 100.0);
        ++failures;
      }
    }
  }
  return failures > 0 ? 1 : 0;
}

// Best-of-N: reruns the workload and keeps the fastest repetition. Gated
// workloads are short, so the minimum filters scheduler noise and cache
// warmup out of the CI comparison.
template <typename MakeResult>
WorkloadResult best_of(int reps, MakeResult make) {
  WorkloadResult best = make();
  for (int i = 1; i < reps; ++i) {
    WorkloadResult r = make();
    if (r.wall_sec < best.wall_sec) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.flag("out", "FILE", "write the JSON report here (- = stdout)", "-")
      .flag("baseline", "FILE",
            "compare against a committed report; exit 1 when any gated "
            "workload regresses by more than --threshold",
            "")
      .flag("threshold", "F", "allowed fractional events/sec regression",
            0.15)
      .flag("scale", "F",
            "multiply simulated durations (0.1 = quick smoke)", 1.0)
      .flag("reps", "N", "repetitions per gated workload, best-of reported",
            3)
      .flag("jobs", "N", "worker threads for the sweep workload", 1)
      .flag("audit-overhead-max", "F",
            "also run fig6 with the conservation audit fully off and fail "
            "if the default audit mode costs more than fraction F of "
            "events/sec (a same-run comparison, far less noisy than a "
            "cross-run baseline)",
            "")
      .flag("shard-scaling",
            "also run the incast100k churn spec and a 1000-node Waxman mesh "
            "through core::ShardedEngine at shards 1/2/4 (off by default: "
            "the pinned perf leg cannot exercise parallelism)",
            false)
      .flag("shard-speedup-min", "F",
            "implies --shard-scaling; fail unless the Waxman workload "
            "reaches F x events/sec at 4 shards over 1 (needs >= 4 cores)",
            "");
  try {
    flags.parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_perf_core: " << e.what() << "\n"
              << flags.usage("bench_perf_core");
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("bench_perf_core");
    return 0;
  }
  const double scale = flags.get_double("scale");
  const double threshold = flags.get_double("threshold");
  const int reps = std::max(1, static_cast<int>(flags.get_int("reps")));
  const auto jobs = static_cast<std::size_t>(flags.get_int("jobs"));

  std::vector<WorkloadResult> results;
  results.push_back(best_of(reps, [&] { return run_sched_micro(scale); }));
  results.push_back(best_of(reps, [&] { return run_queue_micro(scale); }));
  results.push_back(best_of(reps, [&] {
    core::Scenario sc = core::fig2_one_way();
    sc.warmup = sim::Time::seconds(50.0 * scale);
    sc.duration = sim::Time::seconds(3000.0 * scale);
    return run_scenario_workload("fig2", std::move(sc));
  }));
  results.push_back(best_of(reps, [&] {
    core::Scenario sc = core::fig6_twoway();
    sc.warmup = sim::Time::seconds(50.0 * scale);
    sc.duration = sim::Time::seconds(3000.0 * scale);
    return run_scenario_workload("fig6", std::move(sc));
  }));
  const bool check_audit_overhead = flags.has("audit-overhead-max");
  if (check_audit_overhead) {
    // Same scenario with every conservation check disabled: the fig6 /
    // fig6_noaudit ratio is the price of the default audit mode.
    results.push_back(best_of(reps, [&] {
      core::Scenario sc = core::fig6_twoway();
      sc.warmup = sim::Time::seconds(50.0 * scale);
      sc.duration = sim::Time::seconds(3000.0 * scale);
      sc.exp->set_audit_mode(core::AuditMode::kOff);
      WorkloadResult r = run_scenario_workload("fig6_noaudit", std::move(sc));
      r.gated = false;  // exists only for the overhead ratio
      return r;
    }));
  }
  results.push_back(best_of(reps, [&] {
    // The Topology/TrafficMatrix layer at scale: 512 concurrent Tahoe flows
    // over the 4-hop parking-lot grid. Scenario construction (Dijkstra
    // compile + flow instantiation) is inside the timed region on purpose —
    // it is part of what the API costs at this flow count.
    const double t0 = now_sec();
    core::ParkingLotParams p;
    core::Scenario sc = core::make_topo_scenario(core::parking_lot_spec(p));
    sc.warmup = sim::Time::seconds(10.0 * scale);
    sc.duration = sim::Time::seconds(30.0 * scale);
    WorkloadResult r = run_scenario_workload("topo512", std::move(sc));
    r.wall_sec = now_sec() - t0;
    return r;
  }));
  results.push_back(best_of(reps, [&] { return run_cc_matrix_small(scale); }));
  results.push_back(best_of(reps, [&] {
    // All-BBR two-way dumbbell: every ACK feeds the delivery-rate sampler
    // and every send consults the model's pacing interval, so this is the
    // one workload where the pacing timer (not the window) meters the
    // senders.
    core::Scenario sc = core::ccmix_twoway({tcp::CcAlgorithm::kBbr});
    sc.warmup = sim::Time::seconds(50.0 * scale);
    sc.duration = sim::Time::seconds(3000.0 * scale);
    return run_scenario_workload("bbr_dumbbell", std::move(sc));
  }));
  results.push_back(best_of(reps, [&] {
    // RED+ECN chain (the E21 configuration): the AQM path costs one EWMA
    // update plus one RNG draw per in-band arrival, and marked packets ride
    // the CE -> ECE -> on_ecn_echo loop instead of the loss path. Gated so
    // the discipline dispatch and the mark machinery stay on the perf
    // radar.
    core::RedWaveParams p;
    p.qdisc.kind = net::QdiscKind::kRed;
    p.qdisc.red.ecn = true;
    p.ecn = true;
    p.warmup_sec = 50.0 * scale;
    p.duration_sec = 1000.0 * scale;
    return run_scenario_workload(
        "red_wave", core::make_topo_scenario(core::red_wave_spec(p)));
  }));
  results.push_back(run_incast100k(scale));
  results.push_back(run_sweep16(scale, jobs));

  const bool gate_shard_speedup = flags.has("shard-speedup-min");
  const double shard_speedup_min =
      flags.get_double("shard-speedup-min", 0.0);
  if (flags.get_bool("shard-scaling") || gate_shard_speedup) {
    // Best-of across shard counts would hide barrier-round variance, which
    // is exactly what the scaling numbers exist to surface — so each point
    // runs best-of like the serial workloads, shard count outermost.
    const core::TopoSpec wax = waxman1k_spec(scale);
    const core::TopoSpec inc = incast100k_shard_spec(scale);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      const std::string suffix = "_s" + std::to_string(shards);
      results.push_back(best_of(
          reps, [&] { return run_sharded("waxman1k" + suffix, wax, shards); }));
      results.push_back(best_of(reps, [&] {
        return run_sharded("incast100k" + suffix, inc, shards);
      }));
    }
  }

  const std::string out = flags.get("out");
  if (out == "-") {
    write_report(std::cout, results);
  } else {
    std::ofstream os(out, std::ios::binary);
    if (!os) {
      std::cerr << "bench_perf_core: cannot open --out '" << out << "'\n";
      return 2;
    }
    write_report(os, results);
  }

  if (check_audit_overhead) {
    const auto find = [&](const std::string& name) -> const WorkloadResult* {
      for (const auto& w : results)
        if (w.name == name) return &w;
      return nullptr;
    };
    const WorkloadResult* with = find("fig6");
    const WorkloadResult* without = find("fig6_noaudit");
    const double max_overhead = flags.get_double("audit-overhead-max", 0.0);
    const double overhead =
        1.0 - with->events_per_sec() / without->events_per_sec();
    std::fprintf(stderr,
                 "bench_perf_core: audit overhead %.2f%% (max %.0f%%)\n",
                 overhead * 100.0, max_overhead * 100.0);
    if (overhead > max_overhead) {
      std::fprintf(stderr,
                   "bench_perf_core: FAIL audit mode costs %.2f%% events/sec "
                   "(budget %.0f%%)\n",
                   overhead * 100.0, max_overhead * 100.0);
      return 1;
    }
  }

  if (gate_shard_speedup) {
    const auto find = [&](const std::string& name) -> const WorkloadResult* {
      for (const auto& w : results)
        if (w.name == name) return &w;
      return nullptr;
    };
    const WorkloadResult* s1 = find("waxman1k_s1");
    const WorkloadResult* s4 = find("waxman1k_s4");
    const double speedup =
        s1 && s4 && s1->events_per_sec() > 0.0
            ? s4->events_per_sec() / s1->events_per_sec()
            : 0.0;
    std::fprintf(stderr,
                 "bench_perf_core: waxman1k 4-shard speedup %.2fx "
                 "(min %.2fx)\n",
                 speedup, shard_speedup_min);
    if (speedup < shard_speedup_min) {
      std::fprintf(stderr,
                   "bench_perf_core: FAIL sharded scaling below the "
                   "%.2fx floor\n",
                   shard_speedup_min);
      return 1;
    }
  }

  if (flags.has("baseline")) {
    return compare_to_baseline(results, flags.get("baseline"), threshold);
  }
  return 0;
}
