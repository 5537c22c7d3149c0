#include "core/chain.h"

#include <string>

#include "util/rng.h"

namespace tcpdyn::core {

Topology chain_topology(const ChainParams& p) {
  Topology t;
  std::vector<std::size_t> switches, hosts;
  for (std::size_t i = 0; i < p.switches; ++i) {
    switches.push_back(t.add_switch("S" + std::to_string(i + 1)));
    hosts.push_back(t.add_host("H" + std::to_string(i + 1)));
  }
  for (std::size_t i = 0; i < p.switches; ++i) {
    t.add_link(hosts[i], switches[i], p.access_bps, p.access_delay,
               p.access_buffer);
    if (i + 1 < p.switches) {
      t.add_link(switches[i], switches[i + 1], p.trunk_bps, p.trunk_delay,
                 p.trunk_buffer);
    }
  }
  for (std::size_t i = 0; i + 1 < p.switches; ++i) {
    t.monitor(switches[i], switches[i + 1]);
    t.monitor(switches[i + 1], switches[i]);
  }
  return t;
}

TrafficMatrix chain_traffic(const ChainParams& p, std::size_t count,
                            std::uint64_t seed, sim::Time start_spread) {
  util::Rng rng(seed);
  const std::size_t n = p.switches;
  const auto host = [](std::size_t i) {
    const std::string n = std::to_string(i + 1);
    return "H" + n;
  };
  TrafficMatrix traffic;
  for (std::size_t i = 0; i < count; ++i) {
    // Path length cycles 1, 2, ..., n-1 so lengths are equally represented.
    const std::size_t hops = 1 + i % (n - 1);
    const std::size_t src = rng.next_below(n - hops);
    const std::size_t dst = src + hops;
    const bool forward = rng.next_double() < 0.5;
    ConnSpec c;
    c.src = host(forward ? src : dst);
    c.dst = host(forward ? dst : src);
    c.start_time = sim::Time::seconds(rng.uniform(0.0, start_spread.sec()));
    traffic.add(std::move(c));
  }
  return traffic;
}

}  // namespace tcpdyn::core
