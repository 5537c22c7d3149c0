#include "workloads.h"

#include <cmath>
#include <iterator>
#include <memory>
#include <sstream>
#include <string_view>

#include "core/scenarios.h"
#include "core/shard_engine.h"
#include "core/sweep.h"
#include "core/topo_scenarios.h"
#include "util/rng.h"

namespace tcpdyn::bench {

namespace {

constexpr std::size_t kSweepJobs = 2;
constexpr std::size_t kShards = 4;

const std::vector<WorkloadInfo> kWorkloads = {
    {Workload::kPaperSweep, "paper_sweep", 5, kSweepJobs},
    {Workload::kMeshZoo, "mesh_zoo", 10, 1},
    {Workload::kMeshZooShards4, "mesh_zoo_shards4", 10, 1},
    {Workload::kIncastChurn, "incast_churn", 20, 1},
};
// Sweep points at or above this delay use the large-pipe factory (Figs.
// 6-7), the rest the small-pipe one (Figs. 4-5).
constexpr double kLargePipeTau = 0.1;

// Span names whose summed CPU times become `<name>_s` per-layer metrics.
constexpr std::string_view kTimedLayers[] = {
    "core.topology.parse",
    "core.topology.compile",
    "core.topology.instantiate",
    "core.shard.plan",
    "core.analysis.oscillation_period",
    "core.analysis.classify_sync",
    "core.analysis.clustering",
    "core.analysis.rapid_fluctuations",
    "core.analysis.analyze_epochs",
    "core.analysis.ack_compression",
    "core.analysis.summarize_flows",
};

// ------------------------------------------------------------------ inputs

// Waxman mesh (the congestion-wave meshes of Stéger, Vaderna & Vattay):
// switches at random unit-square points, a random spanning tree, extra
// trunks with probability alpha * exp(-d / (beta * sqrt 2)), trunks cycling
// through the three disciplines and flows through five controllers.
std::string mesh_topo(std::uint64_t seed, std::size_t switches,
                      std::size_t hosts, std::size_t flows, double warmup,
                      double duration) {
  constexpr double kAlpha = 0.1;
  constexpr double kBeta = 0.4;
  constexpr const char* kQdiscs[] = {"droptail", "red-ecn", "drr"};
  constexpr const char* kKinds[] = {"tahoe", "newreno", "cubic", "vegas",
                                    "bbr"};
  util::Rng rng(util::mix_seed(seed, 0x3e5));
  std::ostringstream os;
  os << "name mesh_zoo\nseed " << seed << "\nwarmup " << warmup
     << "\nduration " << duration << "\n";
  std::vector<double> xs(switches);
  std::vector<double> ys(switches);
  for (std::size_t i = 0; i < switches; ++i) {
    os << "switch W" << i + 1 << "\n";
    xs[i] = rng.next_double();
    ys[i] = rng.next_double();
  }
  for (std::size_t k = 0; k < hosts; ++k) os << "host H" << k + 1 << "\n";
  std::size_t trunks = 0;
  const auto trunk = [&](std::size_t i, std::size_t j) {
    os << "link W" << i + 1 << " W" << j + 1 << " 1000000 0.005 50 50 "
       << kQdiscs[trunks++ % 3] << "\n";
  };
  std::vector<std::vector<bool>> linked(switches,
                                        std::vector<bool>(switches, false));
  for (std::size_t i = 1; i < switches; ++i) {
    const std::size_t j = rng.next_below(i);
    trunk(i, j);
    linked[i][j] = linked[j][i] = true;
  }
  for (std::size_t i = 0; i < switches; ++i) {
    for (std::size_t j = i + 1; j < switches; ++j) {
      const double d = std::hypot(xs[i] - xs[j], ys[i] - ys[j]);
      const bool take =
          rng.next_double() < kAlpha * std::exp(-d / (kBeta * std::sqrt(2.0)));
      if (take && !linked[i][j]) trunk(i, j);
    }
  }
  for (std::size_t k = 0; k < hosts; ++k) {
    os << "link H" << k + 1 << " W" << rng.next_below(switches) + 1
       << " 10000000 0.0001 inf inf\n";
  }
  os << "monitor W2 W1\nmonitor W1 W2\n";  // the first tree trunk
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t src = rng.next_below(hosts);
    std::size_t dst = rng.next_below(hosts - 1);
    if (dst >= src) ++dst;
    os << "flow H" << src + 1 << " H" << dst + 1 << " kind=" << kKinds[f % 5]
       << " start=" << rng.uniform(0.0, warmup) << " ecn=1\n";
  }
  return os.str();
}

// N-to-1 incast star with open-loop Poisson session churn.
std::string incast_topo(std::uint64_t seed, std::size_t senders,
                        std::size_t sessions, double warmup,
                        double duration) {
  std::ostringstream os;
  os << "name incast_churn\nseed " << seed << "\nwarmup " << warmup
     << "\nduration " << duration << "\nswitch T\nhost R\n";
  for (std::size_t i = 0; i < senders; ++i) os << "host S" << i + 1 << "\n";
  os << "link T R 1000000 0.0005 64 64\n";
  for (std::size_t i = 0; i < senders; ++i) {
    os << "link S" << i + 1 << " T 10000000 0.0001 inf inf\n";
  }
  os << "monitor T R\nmonitor R T\n";
  for (std::size_t i = 0; i < senders; ++i) {
    os << "flow S" << i + 1 << " R count=" << sessions
       << " rate=10 session=0.05\n";
  }
  return os.str();
}

// ------------------------------------------------------------ measurement

struct Tally {
  std::uint64_t hops = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;

  Tally(net::Network& net, std::uint64_t events_executed,
        const core::ExperimentResult& r)
      : events(events_executed), flows(r.senders.size()) {
    net.for_each_port([this](net::OutputPort& port) {
      const net::QueueCounters& c = port.counters();
      hops += c.departures;
      arrivals += c.arrivals;
      drops += c.drops;
      marks += c.marks;
    });
    for (const auto& [conn, s] : r.senders) {
      data_sent += s.data_sent;
      retransmits += s.retransmits;
      timeouts += s.timeout_losses;
    }
  }
  Tally() = default;

  Tally& operator+=(const Tally& o) {
    hops += o.hops;
    arrivals += o.arrivals;
    drops += o.drops;
    marks += o.marks;
    events += o.events;
    flows += o.flows;
    data_sent += o.data_sent;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    return *this;
  }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest(std::uint64_t h, const Tally& t,
                     const core::AuditTotals& a) {
  for (const std::uint64_t v :
       {t.hops, t.arrivals, t.drops, t.marks, t.events, t.flows, t.data_sent,
        t.retransmits, t.timeouts, a.created, a.delivered, a.dropped,
        a.in_queue, a.in_flight, a.marks}) {
    h = fnv1a(h, v);
  }
  return h;
}

// Empty when the ledger closes: created = delivered + dropped + in_queue +
// in_flight. (Experiment::run also throws on a violation.)
std::string check_audit(const core::AuditTotals& a, core::AuditMode mode) {
  if (mode == core::AuditMode::kOff) return {};
  if (a.created == 0) return "audit: no packets created";
  if (a.created != a.delivered + a.dropped + a.in_queue + a.in_flight) {
    return "audit: ledger does not close (created " +
           std::to_string(a.created) + ")";
  }
  return {};
}

std::uint64_t route_entries(net::Network& net) {
  std::uint64_t n = 0;
  for (net::NodeId sw = 0; sw < net.node_count(); ++sw) {
    if (net.is_host(sw)) continue;
    for (net::NodeId h = 0; h < net.node_count(); ++h) {
      n += net.is_host(h) && net.switch_node(sw).has_route(h);
    }
  }
  return n;
}

template <typename F>
auto timed(Tracer* tracer, const char* name, std::uint64_t parent, F&& f) {
  Span span(tracer, name, parent);
  return f();
}

// Standalone calls for the traced trial, made after the trial so they leave
// its own timings alone. Each public analysis function runs once on `r`,
// with the arguments core::summarize_result gives it, in a span of its own.
void time_analysis(const core::ExperimentResult& r, double gap,
                   Tracer* tracer, std::uint64_t parent) {
  const double from = r.t_start;
  const double to = r.t_end;
  for (std::size_t i = 0; i < r.ports.size() && i < 2; ++i) {
    const core::PortTrace& p = r.ports[i];
    timed(tracer, "core.analysis.clustering", parent,
          [&] { return core::clustering(p, from, to); });
    timed(tracer, "core.analysis.rapid_fluctuations", parent, [&] {
      return core::rapid_fluctuations(p.queue, from, to, r.data_tx_time);
    });
  }
  if (!r.ports.empty()) {
    timed(tracer, "core.analysis.oscillation_period", parent,
          [&] { return core::oscillation_period(r.ports[0].queue, from, to); });
  }
  if (r.ports.size() > 1) {
    timed(tracer, "core.analysis.classify_sync", parent, [&] {
      return core::classify_sync(r.ports[0].queue, r.ports[1].queue, from,
                                 to);
    });
  }
  if (r.cwnd.size() >= 2) {
    const auto a = r.cwnd.begin();
    timed(tracer, "core.analysis.classify_sync", parent, [&] {
      return core::classify_sync(a->second, std::next(a)->second, from, to,
                                 /*dt=*/0.25);
    });
  }
  timed(tracer, "core.analysis.analyze_epochs", parent,
        [&] { return core::analyze_epochs(r.drops, from, to, gap); });
  timed(tracer, "core.analysis.summarize_flows", parent,
        [&] { return core::summarize_flows(r); });
  Span ack(tracer, "core.analysis.ack_compression", parent);
  for (const auto& [conn, times] : r.ack_arrivals) {
    core::ack_compression(times, from, to, r.data_tx_time);
  }
}

// Standalone Topology::compile and TrafficMatrix::instantiate, on a fresh
// experiment configured as core::make_topo_scenario configures its own.
void time_setup(const core::TopoSpec& spec, Tracer* tracer,
                std::uint64_t parent) {
  core::Experiment exp;
  exp.set_monitor_mode(spec.monitor_mode);
  exp.set_flow_instrumentation(spec.per_flow_traces);
  const core::CompiledTopology c = timed(
      tracer, "core.topology.compile", parent,
      [&] { return spec.topo.compile(exp); });
  timed(tracer, "core.topology.instantiate", parent,
        [&] { spec.traffic.instantiate(exp, c); });
}

core::TopoSpec parse(const std::string& text, Tracer* tracer,
                     std::uint64_t parent) {
  return timed(tracer, "core.topology.parse", parent, [&] {
    std::istringstream in(text);
    core::TopoSpec spec = core::parse_topology(in);
    spec.monitor_mode = core::MonitorMode::kStreaming;
    spec.per_flow_traces = false;
    return spec;
  });
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void record_common(TrialResult& out, const Tally& t) {
  out.hops = t.hops;
  out.events = t.events;
  out.flows = t.flows;
  out.layer["sim.events_per_hop"] = ratio(t.events, t.hops);
  out.layer["net.drop_frac"] = ratio(t.drops, t.arrivals);
  out.layer["net.mark_frac"] = ratio(t.marks, t.arrivals);
  out.layer["tcp.goodput_frac"] = 1.0 - ratio(t.retransmits, t.data_sent);
  out.layer["tcp.timeouts"] = static_cast<double>(t.timeouts);
}

// ------------------------------------------------------------------ trials

// One sweep point's two-way Tahoe dumbbell.
core::Scenario dumbbell(double tau, std::size_t buffer) {
  return tau >= kLargePipeTau ? core::fig6_twoway(tau, buffer)
                              : core::fig4_twoway(tau, buffer);
}

TrialResult sweep_trial(const Inputs& in, const TrialOptions& opt,
                        Tracer* tracer) {
  struct Point {
    double setup_s = 0.0;
    double run_s = 0.0;
    double analysis_s = 0.0;
    double busy_s = 0.0;
    double busy_wall_s = 0.0;
    Tally tally;
    core::AuditTotals audit;
    std::uint64_t setup_allocs = 0;
    std::uint64_t run_allocs = 0;
    std::uint64_t route_entries = 0;
    // Traced trials: kept for the standalone analysis calls.
    core::ExperimentResult result;
    double epoch_gap_sec = 0.0;
  };
  core::SweepGrid grid({{"tau", in.taus}, {"buffer", in.buffers}});
  std::vector<Point> points(grid.size());
  core::SweepOptions options;
  options.jobs = kSweepJobs;
  options.seed = in.sweep_seed;
  const core::SweepRunner runner(std::move(grid), options);

  TrialResult out;
  Span trial(tracer, "trial");
  const std::int64_t cpu0 = process_cpu_ns();
  const core::SweepTable table = runner.run([&](const core::SweepPoint& pt) {
    Point& p = points[pt.index];
    Span point(tracer, "core.sweep.point", trial.id());
    const double tau = pt.value("tau");
    const auto buffer = static_cast<std::size_t>(pt.value("buffer"));
    const std::uint64_t a0 = thread_allocs();
    Span setup(tracer, "setup", point.id());
    core::Scenario sc = dumbbell(tau, buffer);
    sc.warmup = sim::Time::seconds(in.warmup_sec);
    sc.duration = sim::Time::seconds(in.duration_sec);
    sc.exp->set_audit_mode(opt.audit);
    p.setup_s = setup.end();
    const std::uint64_t a1 = thread_allocs();
    Span run(tracer, "core.experiment.run", point.id());
    core::ExperimentResult r = sc.exp->run(sc.warmup, sc.duration);
    p.run_s = run.end();
    p.setup_allocs = a1 - a0;
    p.run_allocs = thread_allocs() - a1;
    p.tally = Tally(sc.exp->network(), sc.exp->sim().events_executed(), r);
    p.audit = r.audit;
    if (tracer != nullptr && pt.index == 0) {
      p.route_entries = route_entries(sc.exp->network());
    }
    Span analysis(tracer, "core.analysis", point.id());
    core::ScenarioSummary summary =
        core::summarize_result(std::move(r), sc.epoch_gap_sec);
    core::SweepRow row = core::summary_row(pt, summary);
    if (tracer != nullptr) {
      p.result = std::move(summary.result);
      p.epoch_gap_sec = sc.epoch_gap_sec;
    }
    p.analysis_s = analysis.end();
    p.busy_s = point.end();
    p.busy_wall_s = point.wall_s();
    return row;
  });
  // The sweep's CPU time shared over its workers: its wall time on idle
  // cores, as the pool keeps both workers busy to the last point or two.
  out.wall_s = static_cast<double>(process_cpu_ns() - cpu0) * 1e-9 /
               static_cast<double>(kSweepJobs);
  trial.end();
  if (tracer != nullptr) {
    Span standalone(tracer, "standalone");
    for (const Point& p : points) {
      time_analysis(p.result, p.epoch_gap_sec, tracer, standalone.id());
    }
  }

  Tally total;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::vector<double> busy;
  double busy_wall_s = 0.0;
  std::uint64_t h = kFnvOffset;
  for (const Point& p : points) {
    out.setup_s += p.setup_s;
    out.run_s += p.run_s;
    out.analysis_s += p.analysis_s;
    total += p.tally;
    setup_allocs += p.setup_allocs;
    run_allocs += p.run_allocs;
    busy.push_back(p.busy_s);
    busy_wall_s += p.busy_wall_s;
    h = digest(h, p.tally, p.audit);
    if (out.check.empty()) out.check = check_audit(p.audit, opt.audit);
  }
  out.digest = fnv1a(h, table.to_json());
  for (const core::SweepRow& row : table.rows()) {
    for (const char* col : {"util_fwd", "util_rev"}) {
      const double u = row.number(col);
      if (out.check.empty() && !(u > 0.0 && u <= 1.0)) {
        out.check = std::string(col) + " outside (0, 1] at point " +
                    std::to_string(row.index);
      }
    }
  }
  record_common(out, total);
  if (tracer != nullptr) {
    out.layer["core.topology.route_entries"] =
        static_cast<double>(points.front().route_entries);
    out.layer["core.experiment.allocs_per_hop"] =
        ratio(run_allocs, total.hops);
    out.layer["core.experiment.setup_allocs_per_flow"] =
        ratio(setup_allocs, total.flows);
    out.layer["core.sweep.point_s_p50"] = quantile(busy, 0.5);
    out.layer["core.sweep.point_s_p90"] = quantile(busy, 0.9);
    // Idle time is invisible to CPU clocks, so this one ratio is of wall
    // times.
    out.layer["core.sweep.idle_frac"] =
        1.0 - busy_wall_s / (static_cast<double>(kSweepJobs) * trial.wall_s());
  }
  return out;
}

TrialResult topo_trial(bool sharded, const Inputs& in, const TrialOptions& opt,
                       Tracer* tracer) {
  TrialResult out;
  Span trial(tracer, "trial");
  const std::uint64_t rss0 = tracer != nullptr ? current_rss_bytes() : 0;
  const std::uint64_t a0 = process_allocs();
  Span setup(tracer, "setup", trial.id());
  const core::TopoSpec spec = parse(in.topo, tracer, setup.id());
  std::unique_ptr<core::ShardedEngine> engine;
  core::Scenario scenario;
  if (sharded) {
    Span ctor(tracer, "core.shard.engine", setup.id());
    engine = std::make_unique<core::ShardedEngine>(spec, kShards, opt.audit);
  } else {
    Span make(tracer, "core.topology.make_scenario", setup.id());
    scenario = core::make_topo_scenario(spec);
    scenario.exp->set_audit_mode(opt.audit);
  }
  out.setup_s = setup.end();
  const std::uint64_t rss1 = tracer != nullptr ? current_rss_bytes() : 0;
  const std::uint64_t a1 = process_allocs();

  core::Experiment& exp = sharded ? engine->experiment() : *scenario.exp;
  if (sharded) unpin();
  Span run(tracer, "core.experiment.run", trial.id());
  const std::int64_t cpu0 = process_cpu_ns();
  core::ExperimentResult r =
      sharded ? engine->run() : exp.run(spec.warmup, spec.duration);
  const double run_cpu_s = run.end();
  out.run_wall_s = run.wall_s();
  // A sharded run's CPU time is its workers'. Shared over the shards, it is
  // the event loop's wall time on idle cores if no shard waited at a
  // barrier.
  out.run_s = sharded ? static_cast<double>(process_cpu_ns() - cpu0) * 1e-9 /
                            static_cast<double>(kShards)
                      : run_cpu_s;
  const std::uint64_t a2 = process_allocs();
  const Tally tally(exp.network(),
                    sharded ? engine->events_executed()
                            : exp.sim().events_executed(),
                    r);
  const core::AuditTotals audit = r.audit;

  Span analysis(tracer, "core.analysis", trial.id());
  const core::ScenarioSummary summary =
      core::summarize_result(std::move(r), spec.epoch_gap_sec);
  const core::SweepRow row = core::summary_row(core::SweepPoint{}, summary);
  out.analysis_s = analysis.end();
  out.wall_s = out.setup_s + out.run_s + out.analysis_s;
  trial.end();

  out.check = check_audit(audit, opt.audit);
  out.digest = fnv1a(digest(kFnvOffset, tally, audit),
                     core::SweepTable({row}).to_json());
  record_common(out, tally);
  if (tracer == nullptr) return out;

  out.layer["core.topology.route_entries"] =
      static_cast<double>(route_entries(exp.network()));
  out.layer["core.experiment.allocs_per_hop"] =
      ratio(a2 - a1, tally.hops);
  out.layer["core.experiment.setup_allocs_per_flow"] =
      ratio(a1 - a0, tally.flows);
  out.layer["core.experiment.mem.bytes_per_flow"] =
      ratio(rss1 > rss0 ? rss1 - rss0 : 0, tally.flows);
  // Standalone calls after the trial: compile, instantiate, the planner at
  // the sharded workload's shard count (what it would choose for a serial
  // input), and the analysis functions.
  Span standalone(tracer, "standalone");
  time_setup(spec, tracer, standalone.id());
  const core::ShardPlan plan =
      timed(tracer, "core.shard.plan", standalone.id(), [&] {
        return core::plan_shards(spec.topo, spec.faults, kShards);
      });
  out.layer["core.shard.lookahead_us"] =
      static_cast<double>(plan.lookahead.ns()) / 1000.0;
  out.layer["core.shard.cut_links"] =
      static_cast<double>(plan.cut_links.size());
  time_analysis(summary.result, spec.epoch_gap_sec, tracer, standalone.id());
  return out;
}

}  // namespace

const std::vector<WorkloadInfo>& all_workloads() { return kWorkloads; }

const WorkloadInfo& info(Workload w) {
  return kWorkloads[static_cast<std::size_t>(w)];
}

Inputs make_inputs(Workload w, std::uint64_t seed, bool quick) {
  Inputs in;
  switch (w) {
    case Workload::kPaperSweep: {
      // tau log-uniform on [0.01, 1] s, one draw per equal-width log stratum
      // so every seed covers both sync regimes, crossed with four buffers.
      util::Rng rng(util::mix_seed(seed, 0x5eed));
      const std::size_t n = quick ? 2 : 12;
      for (std::size_t k = 0; k < n; ++k) {
        const double u = (static_cast<double>(k) + rng.next_double()) /
                         static_cast<double>(n);
        in.taus.push_back(0.01 * std::pow(100.0, u));
      }
      in.buffers = {10, 20, 40, 80};
      in.warmup_sec = quick ? 20.0 : 100.0;
      in.duration_sec = quick ? 100.0 : 1000.0;
      in.sweep_seed = seed;
      break;
    }
    case Workload::kMeshZoo:
    case Workload::kMeshZooShards4:
      in.topo = quick ? mesh_topo(seed, 25, 75, 100, 0.5, 1.0)
                      : mesh_topo(seed, 250, 750, 1000, 0.5, 1.0);
      break;
    case Workload::kIncastChurn:
      in.topo = quick ? incast_topo(seed, 20, 50, 5.0, 15.0)
                      : incast_topo(seed, 200, 500, 5.0, 55.0);
      break;
  }
  return in;
}

TrialResult run_trial(Workload w, const Inputs& in, const TrialOptions& opt) {
  Tracer tracer;
  Tracer* t = opt.traced ? &tracer : nullptr;
  if (opt.traced && w == Workload::kPaperSweep) {
    // The sweep counts allocations per thread and phase. One short point of
    // each factory first, uncounted, runs every one-time lazy
    // initialisation, which would otherwise land in whichever point and
    // phase reached it first and make the counts differ from run to run.
    for (const double tau : {0.01, 1.0}) {
      core::Scenario sc = dumbbell(tau, 10);
      sc.warmup = sim::Time::seconds(1.0);
      sc.duration = sim::Time::seconds(10.0);
      core::summary_row(core::SweepPoint{}, core::run_scenario(sc));
    }
  }
  set_alloc_counting(opt.traced);
  TrialResult out = w == Workload::kPaperSweep
                        ? sweep_trial(in, opt, t)
                        : topo_trial(w == Workload::kMeshZooShards4, in, opt, t);
  set_alloc_counting(false);
  out.layer["core.experiment.run_s"] = out.run_s;
  if (opt.traced) {
    out.spans = tracer.take();
    std::map<std::string, double, std::less<>> total;
    for (const SpanRecord& s : out.spans) {
      total[s.name] += static_cast<double>(s.cpu_ns) * 1e-9;
    }
    for (const std::string_view name : kTimedLayers) {
      const auto it = total.find(name);
      out.layer[std::string(name) + "_s"] = it == total.end() ? 0.0 : it->second;
    }
  }
  return out;
}

}  // namespace tcpdyn::bench
