#include "core/dumbbell.h"

namespace tcpdyn::core {

Topology dumbbell_topology(const DumbbellParams& p) {
  Topology t;
  const std::size_t h1 = t.add_host("H1");
  const std::size_t h2 = t.add_host("H2");
  const std::size_t s1 = t.add_switch("S1");
  const std::size_t s2 = t.add_switch("S2");
  t.add_link(h1, s1, p.access_bps, p.access_delay, p.access_buffer);
  LinkSpec bottleneck;
  bottleneck.a = s1;
  bottleneck.b = s2;
  bottleneck.bits_per_second = p.bottleneck_bps;
  bottleneck.delay = p.tau;
  bottleneck.buffer_ab = p.buffer_fwd;
  bottleneck.buffer_ba = p.buffer_rev;
  bottleneck.qdisc = p.bottleneck_qdisc;
  t.add_link(bottleneck);
  t.add_link(s2, h2, p.access_bps, p.access_delay, p.access_buffer);
  t.monitor(s1, s2);
  t.monitor(s2, s1);
  return t;
}

DumbbellHandles build_dumbbell(Experiment& exp, const DumbbellParams& p) {
  const CompiledTopology c = dumbbell_topology(p).compile(exp);
  DumbbellHandles h;
  h.host1 = c.id("H1");
  h.host2 = c.id("H2");
  h.switch1 = c.id("S1");
  h.switch2 = c.id("S2");
  return h;
}

MultiHostHandles build_multihost_dumbbell(
    Experiment& exp, const DumbbellParams& p,
    const std::vector<sim::Time>& access_delays) {
  Topology t;
  const std::size_t s1 = t.add_switch("S1");
  const std::size_t s2 = t.add_switch("S2");
  LinkSpec bottleneck;
  bottleneck.a = s1;
  bottleneck.b = s2;
  bottleneck.bits_per_second = p.bottleneck_bps;
  bottleneck.delay = p.tau;
  bottleneck.buffer_ab = p.buffer_fwd;
  bottleneck.buffer_ba = p.buffer_rev;
  bottleneck.qdisc = p.bottleneck_qdisc;
  t.add_link(bottleneck);
  std::vector<std::string> sources, sinks;
  for (std::size_t i = 0; i < access_delays.size(); ++i) {
    const std::string n = std::to_string(i + 1);
    const std::size_t src = t.add_host("A" + n);
    const std::size_t dst = t.add_host("B" + n);
    t.add_link(src, s1, p.access_bps, access_delays[i], p.access_buffer);
    t.add_link(s2, dst, p.access_bps, access_delays[i], p.access_buffer);
    sources.push_back("A" + n);
    sinks.push_back("B" + n);
  }
  t.monitor(s1, s2);
  t.monitor(s2, s1);
  const CompiledTopology c = t.compile(exp);
  MultiHostHandles h;
  h.switch1 = c.id("S1");
  h.switch2 = c.id("S2");
  for (std::size_t i = 0; i < access_delays.size(); ++i) {
    h.sources.push_back(c.id(sources[i]));
    h.sinks.push_back(c.id(sinks[i]));
  }
  return h;
}

void add_dumbbell_connections(Experiment& exp, const DumbbellHandles& h,
                              const std::vector<ConnSpec>& conns) {
  TrafficMatrix traffic;
  for (ConnSpec c : conns) {
    if (c.src_id == net::kInvalidNode && c.src.empty()) {
      c.src_id = c.forward ? h.host1 : h.host2;
      c.dst_id = c.forward ? h.host2 : h.host1;
    }
    traffic.add(std::move(c));
  }
  traffic.instantiate(exp);
}

}  // namespace tcpdyn::core
