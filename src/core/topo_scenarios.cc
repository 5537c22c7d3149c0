#include "core/topo_scenarios.h"

#include <cmath>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tcpdyn::core {

// ---------------------------------------------------------------- chaos

TopoSpec chaos_spec(const ChaosParams& p) {
  if (p.flows == 0) throw std::invalid_argument("chaos needs >= 1 flow");
  TopoSpec spec;
  spec.name = "chaos";
  spec.seed = p.seed;
  spec.warmup = sim::Time::seconds(p.warmup_sec);
  spec.duration = sim::Time::seconds(p.duration_sec);

  Topology t;
  const std::size_t s1 = t.add_switch("S1");
  const std::size_t s2 = t.add_switch("S2");
  t.add_link(s1, s2, p.trunk_bps, sim::Time::seconds(p.tau_sec),
             net::QueueLimit::of(p.buffer));
  for (std::size_t i = 0; i < p.flows; ++i) {
    const std::string n = std::to_string(i + 1);
    const std::size_t a = t.add_host("A" + n);
    const std::size_t b = t.add_host("B" + n);
    t.add_link(a, s1, p.access_bps, sim::Time::microseconds(100));
    t.add_link(b, s2, p.access_bps, sim::Time::microseconds(100));
  }
  t.monitor(s1, s2);
  t.monitor(s2, s1);
  spec.topo = std::move(t);

  const sim::Time spread = sim::Time::seconds(p.start_spread_sec);
  const auto kind_of = [&p](std::size_t conn) {
    return p.cc.empty() ? tcp::CcAlgorithm::kTahoe : p.cc[conn % p.cc.size()];
  };
  for (std::size_t i = 0; i < p.flows; ++i) {
    const std::string n = std::to_string(i + 1);
    ConnSpec fwd;
    fwd.src = "A" + n;
    fwd.dst = "B" + n;
    fwd.kind = kind_of(2 * i);
    fwd.start_spread = spread;
    fwd.seed = util::mix_seed(p.seed, 2 * i);
    spec.traffic.add(std::move(fwd));
    ConnSpec rev;
    rev.src = "B" + n;
    rev.dst = "A" + n;
    rev.kind = kind_of(2 * i + 1);
    rev.start_spread = spread;
    rev.seed = util::mix_seed(p.seed, 2 * i + 1);
    spec.traffic.add(std::move(rev));
  }

  FaultPlan faults;
  faults.set_seed(util::mix_seed(p.seed, 0xfa17));
  if (p.ge_p_good_to_bad > 0.0 && p.ge_loss_bad > 0.0) {
    // Burst loss on the reverse trunk direction only: forward data flows
    // lose ACKs, reverse data flows lose data — the asymmetry the two-way
    // traffic story is about.
    LinkImpairment imp;
    imp.link = {"S1", "S2", FaultDir::kBA};
    net::GilbertElliott ge;
    ge.p_good_to_bad = p.ge_p_good_to_bad;
    ge.p_bad_to_good = p.ge_p_bad_to_good;
    ge.loss_bad = p.ge_loss_bad;
    imp.model.gilbert = ge;
    faults.add_impairment(std::move(imp));
  }
  for (std::size_t k = 0; k < p.flaps && p.outage_sec > 0.0; ++k) {
    LinkOutage o;
    o.link = {"S1", "S2", FaultDir::kBoth};
    o.origin =
        "chaos flap " + std::to_string(k + 1) + " (--flaps, --flap-period)";
    o.at = sim::Time::seconds(p.warmup_sec +
                              p.flap_period_sec * static_cast<double>(k + 1));
    o.duration = sim::Time::seconds(p.outage_sec);
    o.policy = p.discard_on_down ? net::DownPolicy::kDiscard
                                 : net::DownPolicy::kDrain;
    faults.add_outage(std::move(o));
  }
  spec.faults = std::move(faults);
  return spec;
}

// ------------------------------------------------------------- red wave

TopoSpec red_wave_spec(const RedWaveParams& p) {
  if (p.hops < 1) throw std::invalid_argument("red wave needs >= 1 hop");
  if (p.flows == 0) throw std::invalid_argument("red wave needs >= 1 flow");
  TopoSpec spec;
  spec.name = "red-wave";
  spec.seed = p.seed;
  spec.warmup = sim::Time::seconds(p.warmup_sec);
  spec.duration = sim::Time::seconds(p.duration_sec);

  Topology t;
  const std::size_t n = p.hops + 1;
  std::vector<std::size_t> switches;
  for (std::size_t i = 0; i < n; ++i) {
    switches.push_back(t.add_switch("S" + std::to_string(i + 1)));
  }
  net::QdiscConfig trunk_qdisc = p.qdisc;
  trunk_qdisc.limit = net::QueueLimit::of(p.buffer);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.add_link(switches[i], switches[i + 1], p.trunk_bps,
               sim::Time::seconds(p.tau_sec), net::QueueLimit::of(p.buffer),
               trunk_qdisc);
  }
  for (std::size_t i = 0; i < p.flows; ++i) {
    const std::string suffix = std::to_string(i + 1);
    const std::size_t a = t.add_host("A" + suffix);
    const std::size_t b = t.add_host("B" + suffix);
    t.add_link(a, switches.front(), p.access_bps,
               sim::Time::microseconds(100));
    t.add_link(b, switches.back(), p.access_bps, sim::Time::microseconds(100));
  }
  // Forward trunk hops in chain order: ports[h] is hop h for analyze_waves.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.monitor(switches[i], switches[i + 1]);
  }
  spec.topo = std::move(t);

  const sim::Time spread = sim::Time::seconds(p.start_spread_sec);
  for (std::size_t i = 0; i < p.flows; ++i) {
    const std::string suffix = std::to_string(i + 1);
    ConnSpec fwd;
    fwd.src = "A" + suffix;
    fwd.dst = "B" + suffix;
    fwd.kind = p.cc;
    fwd.ecn = p.ecn;
    fwd.start_spread = spread;
    fwd.seed = util::mix_seed(p.seed, 2 * i);
    spec.traffic.add(std::move(fwd));
    ConnSpec rev;
    rev.src = "B" + suffix;
    rev.dst = "A" + suffix;
    rev.kind = p.cc;
    rev.ecn = p.ecn;
    rev.start_spread = spread;
    rev.seed = util::mix_seed(p.seed, 2 * i + 1);
    spec.traffic.add(std::move(rev));
  }
  return spec;
}

// ----------------------------------------------------------------- ring

Topology ring_topology(const RingParams& p) {
  Topology t;
  std::vector<std::size_t> switches, hosts;
  for (std::size_t i = 0; i < p.switches; ++i) {
    const std::string n = std::to_string(i + 1);
    switches.push_back(t.add_switch("R" + n));
    hosts.push_back(t.add_host("H" + n));
  }
  for (std::size_t i = 0; i < p.switches; ++i) {
    t.add_link(hosts[i], switches[i], p.access_bps, p.access_delay);
    t.add_link(switches[i], switches[(i + 1) % p.switches], p.trunk_bps,
               p.trunk_delay, p.trunk_buffer);
  }
  t.monitor(switches[0], switches[1]);
  t.monitor(switches[1], switches[0]);
  return t;
}

TopoSpec ring_spec(const RingParams& p) {
  if (p.switches < 3) {
    throw std::invalid_argument("ring needs at least 3 switches");
  }
  TopoSpec spec;
  spec.name = "ring";
  spec.topo = ring_topology(p);
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(300.0);
  util::Rng rng(p.seed);
  for (std::size_t k = 0; k < p.flows; ++k) {
    const std::size_t src = rng.next_below(p.switches);
    const std::size_t offset = 1 + rng.next_below(p.switches - 1);
    const std::size_t dst = (src + offset) % p.switches;
    ConnSpec c;
    c.src = "H" + std::to_string(src + 1);
    c.dst = "H" + std::to_string(dst + 1);
    c.start_time =
        sim::Time::seconds(rng.uniform(0.0, p.start_spread_sec));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

// ---------------------------------------------------------- parking lot

Topology parking_lot_topology(const ParkingLotParams& p) {
  Topology t;
  const std::size_t n = p.hops + 1;
  std::vector<std::size_t> switches, sources, sinks;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = std::to_string(i + 1);
    switches.push_back(t.add_switch("P" + suffix));
    sources.push_back(t.add_host("X" + suffix));
    sinks.push_back(t.add_host("Y" + suffix));
  }
  for (std::size_t i = 0; i < n; ++i) {
    t.add_link(sources[i], switches[i], p.access_bps, p.access_delay);
    t.add_link(sinks[i], switches[i], p.access_bps, p.access_delay);
    if (i + 1 < n) {
      t.add_link(switches[i], switches[i + 1], p.trunk_bps, p.trunk_delay,
                 p.trunk_buffer);
    }
  }
  t.monitor(switches[0], switches[1]);
  t.monitor(switches[1], switches[0]);
  return t;
}

TopoSpec parking_lot_spec(const ParkingLotParams& p) {
  if (p.hops < 1) {
    throw std::invalid_argument("parking lot needs at least 1 hop");
  }
  TopoSpec spec;
  spec.name = "parking-lot";
  spec.topo = parking_lot_topology(p);
  spec.warmup = sim::Time::seconds(p.warmup_sec);
  spec.duration = sim::Time::seconds(p.duration_sec);
  const sim::Time spread = sim::Time::seconds(p.start_spread_sec);
  if (p.long_flows > 0) {
    ConnSpec lng;
    lng.src = "X1";
    lng.dst = "Y" + std::to_string(p.hops + 1);
    lng.count = p.long_flows;
    lng.start_spread = spread;
    lng.seed = util::mix_seed(p.seed, 0);
    spec.traffic.add(std::move(lng));
  }
  for (std::size_t hop = 0; hop < p.hops && p.cross_per_hop > 0; ++hop) {
    ConnSpec cross;
    cross.src = "X" + std::to_string(hop + 1);
    cross.dst = "Y" + std::to_string(hop + 2);
    cross.count = p.cross_per_hop;
    cross.start_spread = spread;
    cross.seed = util::mix_seed(p.seed, hop + 1);
    spec.traffic.add(std::move(cross));
  }
  return spec;
}

// ------------------------------------------------------ datacenter incast

Topology incast_topology(const IncastParams& p) {
  if (p.senders < 1) {
    throw std::invalid_argument("incast needs at least 1 sender");
  }
  Topology t;
  const std::size_t sw = t.add_switch("T");
  const std::size_t sink = t.add_host("R");
  t.add_link(sw, sink, p.link_bps, sim::Time::seconds(p.link_delay_sec),
             net::QueueLimit::of(p.buffer));
  for (std::size_t i = 0; i < p.senders; ++i) {
    t.add_link(t.add_host("S" + std::to_string(i + 1)), sw, p.access_bps,
               sim::Time::seconds(p.access_delay_sec));
  }
  t.monitor(sw, sink);   // the fan-in queue
  t.monitor(sink, sw);   // the ACK path back out
  return t;
}

TopoSpec incast_spec(const IncastParams& p) {
  TopoSpec spec;
  spec.name = "incast";
  spec.topo = incast_topology(p);
  spec.warmup = sim::Time::seconds(p.warmup_sec);
  spec.duration = sim::Time::seconds(p.duration_sec);
  spec.monitor_mode =
      p.streaming ? MonitorMode::kStreaming : MonitorMode::kFull;
  spec.per_flow_traces = p.per_flow_traces;
  for (std::size_t i = 0; i < p.senders; ++i) {
    ConnSpec c;
    c.src = "S" + std::to_string(i + 1);
    c.dst = "R";
    c.kind = p.cc;
    c.count = p.flows_per_sender;
    c.seed = util::mix_seed(p.seed, i);
    if (p.arrival_rate > 0.0) {
      c.arrival_rate = p.arrival_rate;
      c.session_time = sim::Time::seconds(p.session_sec);
    } else {
      c.start_spread = sim::Time::seconds(p.start_spread_sec);
    }
    spec.traffic.add(std::move(c));
  }
  return spec;
}

// --------------------------------------------------------------- Waxman

Topology waxman_topology(const WaxmanParams& p) {
  if (p.switches < 2 || p.hosts < 2) {
    throw std::invalid_argument("waxman needs >= 2 switches and >= 2 hosts");
  }
  util::Rng rng(p.seed);
  Topology t;
  std::vector<std::size_t> switches;
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < p.switches; ++i) {
    switches.push_back(t.add_switch("W" + std::to_string(i + 1)));
    xs.push_back(rng.next_double());
    ys.push_back(rng.next_double());
  }
  // Random spanning tree first (connectivity by construction), then extra
  // links with the Waxman probability over the remaining pairs.
  std::vector<std::vector<bool>> linked(p.switches,
                                        std::vector<bool>(p.switches, false));
  for (std::size_t i = 1; i < p.switches; ++i) {
    const std::size_t j = rng.next_below(i);
    t.add_link(switches[i], switches[j], p.trunk_bps, p.trunk_delay,
               p.trunk_buffer);
    linked[i][j] = linked[j][i] = true;
  }
  const double scale = std::sqrt(2.0);  // max distance in the unit square
  for (std::size_t i = 0; i < p.switches; ++i) {
    for (std::size_t j = i + 1; j < p.switches; ++j) {
      const double d = std::hypot(xs[i] - xs[j], ys[i] - ys[j]);
      const double prob = p.alpha * std::exp(-d / (p.beta * scale));
      // Draw unconditionally so the stream advances the same way whether or
      // not the pair is already tree-linked.
      const bool take = rng.next_double() < prob;
      if (take && !linked[i][j]) {
        t.add_link(switches[i], switches[j], p.trunk_bps, p.trunk_delay,
                   p.trunk_buffer);
        linked[i][j] = linked[j][i] = true;
      }
    }
  }
  for (std::size_t k = 0; k < p.hosts; ++k) {
    const std::size_t sw = rng.next_below(p.switches);
    const std::size_t host = t.add_host("H" + std::to_string(k + 1));
    t.add_link(host, switches[sw], p.access_bps, p.access_delay);
  }
  // Monitor the first trunk: the spanning-tree link off switch 2, which is
  // always W2 <-> W1 (next_below(1) == 0).
  t.monitor(switches[1], switches[0]);
  t.monitor(switches[0], switches[1]);
  return t;
}

TopoSpec waxman_spec(const WaxmanParams& p) {
  TopoSpec spec;
  spec.name = "waxman";
  spec.topo = waxman_topology(p);
  spec.warmup = sim::Time::seconds(50.0);
  spec.duration = sim::Time::seconds(200.0);
  // Flow endpoints come from a separate stream so topology and traffic can
  // be varied independently.
  util::Rng rng(util::mix_seed(p.seed, 0xf10f));
  for (std::size_t k = 0; k < p.flows; ++k) {
    const std::size_t src = rng.next_below(p.hosts);
    std::size_t dst = rng.next_below(p.hosts - 1);
    if (dst >= src) ++dst;
    ConnSpec c;
    c.src = "H" + std::to_string(src + 1);
    c.dst = "H" + std::to_string(dst + 1);
    c.start_time = sim::Time::seconds(rng.uniform(0.0, p.start_spread_sec));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

}  // namespace tcpdyn::core
