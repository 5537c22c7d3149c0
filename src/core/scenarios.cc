#include "core/scenarios.h"

#include "util/rng.h"

namespace tcpdyn::core {

namespace {

// Staggered start times break the perfect symmetry of simultaneous starts
// (the paper starts connections at random times); deterministic seed keeps
// runs reproducible.
std::vector<sim::Time> start_times(std::size_t n, std::uint64_t seed,
                                   double spread_sec) {
  util::Rng rng(seed);
  std::vector<sim::Time> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(sim::Time::seconds(rng.uniform(0.0, spread_sec)));
  }
  return out;
}

Scenario make_dumbbell_scenario(std::string name, const DumbbellParams& params,
                                std::vector<ConnSpec> conns,
                                sim::Time warmup, sim::Time duration,
                                double epoch_gap, std::uint64_t seed = 42) {
  Scenario s;
  s.name = std::move(name);
  s.exp = std::make_unique<Experiment>();
  s.warmup = warmup;
  s.duration = duration;
  s.epoch_gap_sec = epoch_gap;
  s.dumbbell = params;
  const DumbbellHandles h = build_dumbbell(*s.exp, params);
  const auto starts = start_times(conns.size(), seed, 5.0);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].start_time = starts[i];
    // Adaptive (unit-acceleration) connections, for the drops-per-epoch
    // prediction; Reno's window also grows by one per epoch in avoidance.
    if (conns[i].kind != tcp::CcAlgorithm::kFixedWindow) {
      ++s.tahoe_connections;
    }
  }
  add_dumbbell_connections(*s.exp, h, conns);
  return s;
}

}  // namespace

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

Scenario fig2_one_way(std::size_t conns, double tau_sec, std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(conns);  // all forward, all Tahoe (defaults)
  const bool long_cycle = tau_sec >= 0.5;
  return make_dumbbell_scenario(
      "fig2-one-way", p, std::move(cs),
      sim::Time::seconds(long_cycle ? 150.0 : 100.0),
      sim::Time::seconds(long_cycle ? 600.0 : 400.0),
      /*epoch_gap=*/long_cycle ? 8.0 : 2.0);
}

Scenario fig3_ten_connections(std::size_t buffer, std::size_t per_direction) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(0.01);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs;
  for (std::size_t i = 0; i < 2 * per_direction; ++i) {
    ConnSpec c;
    c.forward = i < per_direction;
    cs.push_back(c);
  }
  return make_dumbbell_scenario("fig3-ten-connections", p, std::move(cs),
                                sim::Time::seconds(100.0),
                                sim::Time::seconds(400.0),
                                /*epoch_gap=*/2.0);
}

Scenario fig4_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[1].forward = false;
  return make_dumbbell_scenario("fig4-5-twoway-small-pipe", p, std::move(cs),
                                sim::Time::seconds(100.0),
                                sim::Time::seconds(400.0),
                                /*epoch_gap=*/2.0);
}

Scenario fig6_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[1].forward = false;
  Scenario s = make_dumbbell_scenario("fig6-7-twoway-large-pipe", p,
                                      std::move(cs), sim::Time::seconds(150.0),
                                      sim::Time::seconds(600.0),
                                      /*epoch_gap=*/8.0);
  return s;
}

Scenario fig8_fixed_window(double tau_sec, std::uint32_t w1,
                           std::uint32_t w2) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::infinite();
  p.buffer_rev = net::QueueLimit::infinite();
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[0].kind = tcp::CcAlgorithm::kFixedWindow;
  cs[0].fixed_window = w1;
  cs[1].forward = false;
  cs[1].kind = tcp::CcAlgorithm::kFixedWindow;
  cs[1].fixed_window = w2;
  return make_dumbbell_scenario(
      tau_sec < 0.5 ? "fig8-fixed-window" : "fig9-fixed-window", p,
      std::move(cs), sim::Time::seconds(60.0), sim::Time::seconds(120.0),
      /*epoch_gap=*/2.0);
}

Scenario zero_ack_fixed(std::uint32_t w1, std::uint32_t w2, double tau_sec) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::infinite();
  p.buffer_rev = net::QueueLimit::infinite();
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[0].kind = tcp::CcAlgorithm::kFixedWindow;
  cs[0].fixed_window = w1;
  cs[0].ack_bytes = 0;
  cs[1].forward = false;
  cs[1].kind = tcp::CcAlgorithm::kFixedWindow;
  cs[1].fixed_window = w2;
  cs[1].ack_bytes = 0;
  return make_dumbbell_scenario("zero-ack-fixed", p, std::move(cs),
                                sim::Time::seconds(60.0),
                                sim::Time::seconds(120.0),
                                /*epoch_gap=*/2.0);
}

Scenario delayed_ack_twoway(std::uint32_t maxwnd, double tau_sec,
                            std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[1].forward = false;
  for (auto& c : cs) {
    c.delayed_ack = true;
    c.maxwnd = maxwnd;
  }
  return make_dumbbell_scenario("delayed-ack-twoway", p, std::move(cs),
                                sim::Time::seconds(100.0),
                                sim::Time::seconds(400.0),
                                /*epoch_gap=*/2.0);
}

Scenario four_switch_chain(std::size_t connections, std::uint64_t seed) {
  Scenario s;
  s.name = "four-switch-chain";
  s.exp = std::make_unique<Experiment>();
  s.warmup = sim::Time::seconds(100.0);
  s.duration = sim::Time::seconds(300.0);
  s.epoch_gap_sec = 2.0;
  ChainParams p;
  const ChainHandles h = build_chain(*s.exp, p);
  add_chain_connections(*s.exp, h, connections, seed);
  s.tahoe_connections = connections;
  return s;
}

Scenario paced_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[1].forward = false;
  // Pace at the bottleneck data rate: one 500 B packet per 80 ms.
  const sim::Time interval =
      sim::Time::transmission(500, p.bottleneck_bps);
  for (auto& c : cs) c.pacing_interval = interval;
  return make_dumbbell_scenario("paced-twoway", p, std::move(cs),
                                sim::Time::seconds(100.0),
                                sim::Time::seconds(400.0),
                                /*epoch_gap=*/2.0);
}

Scenario reno_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[1].forward = false;
  for (auto& c : cs) c.kind = tcp::CcAlgorithm::kReno;
  return make_dumbbell_scenario("reno-twoway", p, std::move(cs),
                                sim::Time::seconds(100.0),
                                sim::Time::seconds(400.0),
                                /*epoch_gap=*/2.0);
}

Scenario random_drop_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  p.bottleneck_qdisc.kind = net::QdiscKind::kRandomDrop;
  std::vector<ConnSpec> cs(2);
  cs[0].forward = true;
  cs[1].forward = false;
  return make_dumbbell_scenario("random-drop-twoway", p, std::move(cs),
                                sim::Time::seconds(100.0),
                                sim::Time::seconds(400.0),
                                /*epoch_gap=*/2.0);
}

Scenario rtt_heterogeneity(std::size_t conns, double spread_sec,
                           double tau_sec, std::size_t buffer) {
  Scenario s;
  s.name = "rtt-heterogeneity";
  s.exp = std::make_unique<Experiment>();
  s.warmup = sim::Time::seconds(100.0);
  s.duration = sim::Time::seconds(300.0);
  s.epoch_gap_sec = 2.0;
  s.tahoe_connections = conns;
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  s.dumbbell = p;
  // Access delays spread evenly over [0.1 ms, 0.1 ms + spread].
  std::vector<sim::Time> delays;
  for (std::size_t i = 0; i < conns; ++i) {
    const double extra =
        conns > 1 ? spread_sec * static_cast<double>(i) /
                        static_cast<double>(conns - 1)
                  : 0.0;
    delays.push_back(sim::Time::seconds(1e-4 + extra));
  }
  const MultiHostHandles h = build_multihost_dumbbell(*s.exp, p, delays);
  const auto starts = start_times(conns, /*seed=*/42, 5.0);
  for (std::size_t i = 0; i < conns; ++i) {
    tcp::ConnectionConfig cfg;
    cfg.id = static_cast<net::ConnId>(i);
    cfg.src_host = h.sources[i];
    cfg.dst_host = h.sinks[i];
    cfg.start_time = starts[i];
    s.exp->add_connection(cfg);
  }
  return s;
}

Scenario increment_ablation(bool modified, double tau_sec,
                            std::size_t buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  std::vector<ConnSpec> cs(3);  // the Fig. 2 configuration
  for (auto& c : cs) c.tahoe.modified_ca_increment = modified;
  return make_dumbbell_scenario(
      modified ? "increment-modified" : "increment-original", p,
      std::move(cs), sim::Time::seconds(150.0), sim::Time::seconds(600.0),
      /*epoch_gap=*/8.0);
}

}  // namespace tcpdyn::core
