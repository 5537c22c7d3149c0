// The §5 / [19] style multi-hop topology: N switches in a chain, one host
// per switch, with a traffic pattern of many connections whose paths span
// 1..N-1 inter-switch hops. Used to show that ACK-compression and
// out-of-phase synchronization persist beyond the single-bottleneck case.
// Scenarios put chain_topology and chain_traffic in one TopoSpec and run it
// through make_topo_scenario.
#pragma once

#include <cstdint>

#include "core/topology.h"

namespace tcpdyn::core {

struct ChainParams {
  std::size_t switches = 4;
  std::int64_t trunk_bps = 50'000;                     // inter-switch links
  sim::Time trunk_delay = sim::Time::seconds(0.01);
  net::QueueLimit trunk_buffer = net::QueueLimit::of(30);
  std::int64_t access_bps = 10'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  net::QueueLimit access_buffer = net::QueueLimit::infinite();
};

// The chain (switches S1..SN, host Hi on switch Si, declared S1, H1, S2,
// H2, ...), with every inter-switch transmit port monitored in both
// directions: ExperimentResult ports are ordered S1->S2, S2->S1, S2->S3,
// S3->S2, ...
Topology chain_topology(const ChainParams& params);

// `count` Tahoe flows between the chain's hosts whose inter-switch path
// lengths cycle through 1..switches-1 ("roughly equally split between 1, 2,
// and 3 hops" for a 4-switch chain). One Rng(seed) stream draws, per flow,
// the endpoint, then the direction, then the start time in
// [0, start_spread); every spec is a single resolved flow, so instantiation
// draws nothing more.
TrafficMatrix chain_traffic(const ChainParams& params, std::size_t count,
                            std::uint64_t seed,
                            sim::Time start_spread = sim::Time::seconds(1.0));

}  // namespace tcpdyn::core
