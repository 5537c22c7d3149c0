// The paper's Figure 1 topology: Host-1 — Switch-1 ==bottleneck== Switch-2 —
// Host-2, with parameters defaulted to §2.2 (50 Kbps bottleneck, 10 Mbps
// access links with 0.1 ms delay, 0.1 ms host processing, 500 B data / 50 B
// ACK packets, 20-packet buffers), as a core::Topology. Scenarios put it in
// a TopoSpec with their flows and run it through make_topo_scenario.
#pragma once

#include <cstdint>
#include <vector>

#include "core/conn_spec.h"
#include "core/topology.h"

namespace tcpdyn::core {

struct DumbbellParams {
  std::int64_t bottleneck_bps = 50'000;
  sim::Time tau = sim::Time::seconds(0.01);  // bottleneck propagation delay
  net::QueueLimit buffer_fwd = net::QueueLimit::of(20);  // S1 -> S2
  net::QueueLimit buffer_rev = net::QueueLimit::of(20);  // S2 -> S1
  std::int64_t access_bps = 10'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  net::QueueLimit access_buffer = net::QueueLimit::infinite();
  // Discipline of both bottleneck directions, with buffer_fwd/buffer_rev as
  // their limits: drop-tail in the paper; random drop reproduces the gateway
  // discipline of the studies it cites; RED and DRR extend the zoo.
  net::QdiscConfig bottleneck_qdisc;

  // Pipe size P = mu * tau / M in data packets (paper §2.2).
  double pipe_size(std::uint32_t data_bytes = 500) const {
    return static_cast<double>(bottleneck_bps) * tau.sec() /
           (8.0 * static_cast<double>(data_bytes));
  }
};

// The §2.2 dumbbell with bottleneck delay `tau_sec` and `buffer` packets in
// each direction; every other field keeps its default.
DumbbellParams dumbbell_params(double tau_sec, net::QueueLimit buffer);

// Nodes H1, H2, S1, S2 in that order (so their NodeIds are 0..3), and both
// bottleneck transmit ports monitored: ExperimentResult port 0 is S1->S2
// ("forward"), port 1 is S2->S1 ("reverse").
Topology dumbbell_topology(const DumbbellParams& params);

// A default flow across the dumbbell: H1 -> H2 when `forward`, else
// H2 -> H1.
ConnSpec dumbbell_flow(bool forward);

// RTT-heterogeneous variant for the §5 clustering-breakdown claim: switches
// S1 and S2 joined by the bottleneck, then per connection i a source host
// A<i+1> on S1 and a sink host B<i+1> on S2, both with access delay
// `access_delays[i]`, so connections share the bottleneck but differ in
// round-trip time. Monitors the bottleneck as dumbbell_topology does.
Topology multihost_dumbbell_topology(
    const DumbbellParams& params, const std::vector<sim::Time>& access_delays);

}  // namespace tcpdyn::core
