#include "core/scenarios.h"

#include "core/chain.h"
#include "core/dumbbell.h"
#include "util/rng.h"

namespace tcpdyn::core {

namespace {

// One connection each way: H1 -> H2, then H2 -> H1.
std::vector<ConnSpec> two_way() {
  return {dumbbell_flow(true), dumbbell_flow(false)};
}

// Adds `conns` in order, each starting at a seeded uniform time in [0, 5) s.
// Staggered starts break the perfect symmetry of simultaneous starts (the
// paper starts connections at random times); the fixed seed keeps runs
// reproducible.
void add_staggered(TopoSpec& spec, std::vector<ConnSpec> conns) {
  util::Rng rng(42);
  for (ConnSpec& c : conns) {
    c.start_time = sim::Time::seconds(rng.uniform(0.0, 5.0));
    spec.traffic.add(std::move(c));
  }
}

TopoSpec dumbbell_spec(std::string name, const DumbbellParams& params,
                       std::vector<ConnSpec> conns, double warmup_sec,
                       double duration_sec, double epoch_gap) {
  TopoSpec spec;
  spec.name = std::move(name);
  spec.topo = dumbbell_topology(params);
  add_staggered(spec, std::move(conns));
  spec.warmup = sim::Time::seconds(warmup_sec);
  spec.duration = sim::Time::seconds(duration_sec);
  spec.epoch_gap_sec = epoch_gap;
  return spec;
}

// Two fixed-window connections (w1 forward, w2 reverse) over infinite
// buffers, the §4.2 and §4.3.3 systems.
TopoSpec fixed_window_spec(std::string name, double tau_sec,
                           std::uint32_t w1, std::uint32_t w2,
                           std::uint32_t ack_bytes) {
  std::vector<ConnSpec> cs = two_way();
  cs[0].fixed_window = w1;
  cs[1].fixed_window = w2;
  for (auto& c : cs) {
    c.kind = tcp::CcAlgorithm::kFixedWindow;
    c.ack_bytes = ack_bytes;
  }
  return dumbbell_spec(
      std::move(name), dumbbell_params(tau_sec, net::QueueLimit::infinite()),
      std::move(cs), 60.0, 120.0, /*epoch_gap=*/2.0);
}

}  // namespace

Scenario::Scenario(const TopoSpec& spec)
    : name(spec.name),
      exp(std::make_unique<Experiment>()),
      warmup(spec.warmup),
      duration(spec.duration),
      epoch_gap_sec(spec.epoch_gap_sec) {
  exp->set_monitor_mode(spec.monitor_mode);
  exp->set_flow_instrumentation(spec.per_flow_traces);
  const CompiledTopology c = spec.topo.compile(*exp);
  spec.traffic.instantiate(*exp, c);
  // Faults last: impairments attach now; outages and parameter changes
  // become scheduler events that fire inside Experiment::run.
  spec.faults.apply(*exp, c);
}

ScenarioSummary run_scenario(Scenario& scenario) {
  return summarize_result(
      scenario.exp->run(scenario.warmup, scenario.duration),
      scenario.epoch_gap_sec);
}

ScenarioSummary summarize_result(ExperimentResult result,
                                 double epoch_gap_sec) {
  ScenarioSummary s;
  s.result = std::move(result);
  const ExperimentResult& r = s.result;
  const double from = r.t_start;
  const double to = r.t_end;

  if (!r.ports.empty()) {
    s.util_fwd = r.ports[0].utilization;
    s.clustering_fwd = clustering(r.ports[0], from, to);
    s.fluct_fwd = rapid_fluctuations(r.ports[0].queue, from, to,
                                     r.data_tx_time);
    s.period_fwd = oscillation_period(r.ports[0].queue, from, to);
  }
  if (r.ports.size() > 1) {
    s.util_rev = r.ports[1].utilization;
    s.clustering_rev = clustering(r.ports[1], from, to);
    s.fluct_rev = rapid_fluctuations(r.ports[1].queue, from, to,
                                     r.data_tx_time);
    s.queue_sync = classify_sync(r.ports[0].queue, r.ports[1].queue, from, to);
  }
  if (r.cwnd.size() >= 2) {
    auto it = r.cwnd.begin();
    const util::TimeSeries& a = it->second;
    const util::TimeSeries& b = std::next(it)->second;
    s.cwnd_sync = classify_sync(a, b, from, to, /*dt=*/0.25);
  }
  s.epochs = analyze_epochs(r.drops, from, to, epoch_gap_sec);
  s.flows = summarize_flows(r);
  for (const auto& [conn, times] : r.ack_arrivals) {
    s.ack[conn] = ack_compression(times, from, to, r.data_tx_time);
  }
  return s;
}

TopoSpec fig2_one_way(std::size_t conns, double tau_sec, std::size_t buffer) {
  const bool long_cycle = tau_sec >= 0.5;
  return dumbbell_spec(
      "fig2-one-way", dumbbell_params(tau_sec, net::QueueLimit::of(buffer)),
      std::vector<ConnSpec>(conns, dumbbell_flow(true)),
      long_cycle ? 150.0 : 100.0, long_cycle ? 600.0 : 400.0,
      /*epoch_gap=*/long_cycle ? 8.0 : 2.0);
}

TopoSpec fig3_ten_connections(std::size_t buffer, std::size_t per_direction) {
  std::vector<ConnSpec> cs(per_direction, dumbbell_flow(true));
  cs.resize(2 * per_direction, dumbbell_flow(false));
  return dumbbell_spec("fig3-ten-connections",
                       dumbbell_params(0.01, net::QueueLimit::of(buffer)),
                       std::move(cs), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec fig4_twoway(double tau_sec, std::size_t buffer) {
  return dumbbell_spec(
      "fig4-5-twoway-small-pipe",
      dumbbell_params(tau_sec, net::QueueLimit::of(buffer)), two_way(), 100.0,
      400.0, /*epoch_gap=*/2.0);
}

TopoSpec fig6_twoway(double tau_sec, std::size_t buffer) {
  return dumbbell_spec(
      "fig6-7-twoway-large-pipe",
      dumbbell_params(tau_sec, net::QueueLimit::of(buffer)), two_way(), 150.0,
      600.0, /*epoch_gap=*/8.0);
}

TopoSpec fig8_fixed_window(double tau_sec, std::uint32_t w1,
                           std::uint32_t w2) {
  return fixed_window_spec(
      tau_sec < 0.5 ? "fig8-fixed-window" : "fig9-fixed-window", tau_sec, w1,
      w2, /*ack_bytes=*/50);
}

TopoSpec zero_ack_fixed(std::uint32_t w1, std::uint32_t w2, double tau_sec) {
  return fixed_window_spec("zero-ack-fixed", tau_sec, w1, w2,
                           /*ack_bytes=*/0);
}

TopoSpec delayed_ack_twoway(std::uint32_t maxwnd, double tau_sec,
                            std::size_t buffer) {
  std::vector<ConnSpec> cs = two_way();
  for (auto& c : cs) {
    c.delayed_ack = true;
    c.maxwnd = maxwnd;
  }
  return dumbbell_spec(
      "delayed-ack-twoway",
      dumbbell_params(tau_sec, net::QueueLimit::of(buffer)), std::move(cs),
      100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec four_switch_chain(std::size_t connections, std::uint64_t seed) {
  const ChainParams p;
  TopoSpec spec;
  spec.name = "four-switch-chain";
  spec.topo = chain_topology(p);
  spec.traffic = chain_traffic(p, connections, seed);
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(300.0);
  return spec;
}

TopoSpec paced_twoway(double tau_sec, std::size_t buffer) {
  const DumbbellParams p =
      dumbbell_params(tau_sec, net::QueueLimit::of(buffer));
  std::vector<ConnSpec> cs = two_way();
  // Pace at the bottleneck data rate: one 500 B packet per 80 ms.
  const sim::Time interval =
      sim::Time::transmission(500, p.bottleneck_bps);
  for (auto& c : cs) c.pacing_interval = interval;
  return dumbbell_spec("paced-twoway", p, std::move(cs), 100.0, 400.0,
                       /*epoch_gap=*/2.0);
}

TopoSpec reno_twoway(double tau_sec, std::size_t buffer) {
  std::vector<ConnSpec> cs = two_way();
  for (auto& c : cs) c.kind = tcp::CcAlgorithm::kReno;
  return dumbbell_spec(
      "reno-twoway", dumbbell_params(tau_sec, net::QueueLimit::of(buffer)),
      std::move(cs), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec random_drop_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p = dumbbell_params(tau_sec, net::QueueLimit::of(buffer));
  p.bottleneck_qdisc.kind = net::QdiscKind::kRandomDrop;
  return dumbbell_spec("random-drop-twoway", p, two_way(), 100.0, 400.0,
                       /*epoch_gap=*/2.0);
}

TopoSpec rtt_heterogeneity(std::size_t conns, double spread_sec,
                           double tau_sec, std::size_t buffer) {
  // Access delays spread evenly over [0.1 ms, 0.1 ms + spread]; flow i runs
  // from A<i+1> to B<i+1>.
  std::vector<sim::Time> delays;
  std::vector<ConnSpec> cs(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    const double extra =
        conns > 1 ? spread_sec * static_cast<double>(i) /
                        static_cast<double>(conns - 1)
                  : 0.0;
    delays.push_back(sim::Time::seconds(1e-4 + extra));
    const std::string n = std::to_string(i + 1);
    cs[i].src = "A" + n;
    cs[i].dst = "B" + n;
  }
  TopoSpec spec;
  spec.name = "rtt-heterogeneity";
  spec.topo = multihost_dumbbell_topology(
      dumbbell_params(tau_sec, net::QueueLimit::of(buffer)), delays);
  add_staggered(spec, std::move(cs));
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(300.0);
  return spec;
}

TopoSpec increment_ablation(bool modified, double tau_sec,
                            std::size_t buffer) {
  std::vector<ConnSpec> cs(3, dumbbell_flow(true));  // the Fig. 2 setup
  for (auto& c : cs) c.tahoe.modified_ca_increment = modified;
  return dumbbell_spec(
      modified ? "increment-modified" : "increment-original",
      dumbbell_params(tau_sec, net::QueueLimit::of(buffer)), std::move(cs),
      150.0, 600.0, /*epoch_gap=*/8.0);
}

}  // namespace tcpdyn::core
