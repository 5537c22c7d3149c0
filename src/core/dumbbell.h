// The paper's Figure 1 topology: Host-1 — Switch-1 ==bottleneck== Switch-2 —
// Host-2, with parameters defaulted to §2.2 (50 Kbps bottleneck, 10 Mbps
// access links with 0.1 ms delay, 0.1 ms host processing, 500 B data / 50 B
// ACK packets, 20-packet buffers). A thin adapter over core::Topology: the
// declaration order matches the historic hand-rolled builder, so compiled
// networks (node ids, port seeds, routes) are identical.
#pragma once

#include <cstdint>
#include <vector>

#include "core/conn_spec.h"
#include "core/experiment.h"
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

struct DumbbellHandles {
  net::NodeId host1 = 0, host2 = 0, switch1 = 0, switch2 = 0;
};

// The dumbbell as a declarative Topology (nodes H1, H2, S1, S2; both
// bottleneck transmit ports monitored), for callers that want to extend the
// graph before compiling.
Topology dumbbell_topology(const DumbbellParams& params);

// Builds the topology inside `exp`, computes routes, and monitors the two
// bottleneck transmit ports (port 0: S1->S2 "forward", port 1: S2->S1
// "reverse" in the ExperimentResult).
DumbbellHandles build_dumbbell(Experiment& exp, const DumbbellParams& params);

// Adds connections with ids 0..n-1 in order. Specs that leave src/dst unset
// use the `forward` shorthand (true: Host-1 -> Host-2).
void add_dumbbell_connections(Experiment& exp, const DumbbellHandles& handles,
                              const std::vector<ConnSpec>& conns);

// RTT-heterogeneous variant for the §5 clustering-breakdown claim: one
// source host per connection attached to switch 1 (each with its own access
// propagation delay) and one sink host per connection on switch 2, so
// connections share the bottleneck but differ in round-trip time.
struct MultiHostHandles {
  std::vector<net::NodeId> sources;
  std::vector<net::NodeId> sinks;
  net::NodeId switch1 = 0, switch2 = 0;
};

// Builds the topology for `access_delays.size()` one-way connections,
// computes routes, and monitors both bottleneck ports. Call
// Experiment::add_connection for sources[i] -> sinks[i] afterwards.
MultiHostHandles build_multihost_dumbbell(
    Experiment& exp, const DumbbellParams& params,
    const std::vector<sim::Time>& access_delays);

}  // namespace tcpdyn::core
