#include "core/dumbbell.h"

#include <string>

namespace tcpdyn::core {

namespace {

void add_bottleneck(Topology& t, std::size_t s1, std::size_t s2,
                    const DumbbellParams& p) {
  LinkSpec bottleneck;
  bottleneck.a = s1;
  bottleneck.b = s2;
  bottleneck.bits_per_second = p.bottleneck_bps;
  bottleneck.delay = p.tau;
  bottleneck.buffer_ab = p.buffer_fwd;
  bottleneck.buffer_ba = p.buffer_rev;
  bottleneck.qdisc = p.bottleneck_qdisc;
  t.add_link(bottleneck);
}

}  // namespace

DumbbellParams dumbbell_params(double tau_sec, net::QueueLimit buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = buffer;
  p.buffer_rev = buffer;
  return p;
}

Topology dumbbell_topology(const DumbbellParams& p) {
  Topology t;
  const std::size_t h1 = t.add_host("H1");
  const std::size_t h2 = t.add_host("H2");
  const std::size_t s1 = t.add_switch("S1");
  const std::size_t s2 = t.add_switch("S2");
  t.add_link(h1, s1, p.access_bps, p.access_delay, p.access_buffer);
  add_bottleneck(t, s1, s2, p);
  t.add_link(s2, h2, p.access_bps, p.access_delay, p.access_buffer);
  t.monitor(s1, s2);
  t.monitor(s2, s1);
  return t;
}

ConnSpec dumbbell_flow(bool forward) {
  ConnSpec c;
  c.src = forward ? "H1" : "H2";
  c.dst = forward ? "H2" : "H1";
  return c;
}

Topology multihost_dumbbell_topology(
    const DumbbellParams& p, const std::vector<sim::Time>& access_delays) {
  Topology t;
  const std::size_t s1 = t.add_switch("S1");
  const std::size_t s2 = t.add_switch("S2");
  add_bottleneck(t, s1, s2, p);
  for (std::size_t i = 0; i < access_delays.size(); ++i) {
    const std::string n = std::to_string(i + 1);
    const std::size_t src = t.add_host("A" + n);
    const std::size_t dst = t.add_host("B" + n);
    t.add_link(src, s1, p.access_bps, access_delays[i], p.access_buffer);
    t.add_link(s2, dst, p.access_bps, access_delays[i], p.access_buffer);
  }
  t.monitor(s1, s2);
  t.monitor(s2, s1);
  return t;
}

}  // namespace tcpdyn::core
