// Topology tour: the general graph-building layer, three ways.
//
//  1. Hand-build a ring with core::Topology and route one flow across it —
//     Dijkstra picks the short way around, ties broken deterministically.
//  2. Schedule a batch of flows with core::TrafficMatrix: one ConnSpec,
//     count=8, start jitter drawn from the spec's own seeded stream. The
//     graph and the flows form a core::TopoSpec, which
//     core::make_topo_scenario turns into a runnable scenario.
//  3. Parse the same kind of description from text (the format behind
//     `tcpdyn_run topo --file=...`).
#include <iostream>
#include <sstream>

#include "core/report.h"
#include "core/scenarios.h"
#include "core/topology.h"

int main() {
  using namespace tcpdyn;

  // 1 + 2: a four-switch ring, eight flows between two hosts.
  core::TopoSpec spec;
  spec.name = "topology tour: 4-switch ring, 8 flows A->B";
  spec.warmup = sim::Time::seconds(20.0);
  spec.duration = sim::Time::seconds(80.0);
  core::Topology& topo = spec.topo;
  std::vector<std::size_t> sw;
  for (int i = 0; i < 4; ++i) {
    sw.push_back(topo.add_switch("R" + std::to_string(i + 1)));
  }
  const std::size_t ha = topo.add_host("A");
  const std::size_t hb = topo.add_host("B");
  topo.add_link(ha, sw[0], 10'000'000, sim::Time::microseconds(100));
  topo.add_link(hb, sw[2], 10'000'000, sim::Time::microseconds(100));
  for (int i = 0; i < 4; ++i) {
    topo.add_link(sw[i], sw[(i + 1) % 4], 200'000, sim::Time::milliseconds(5),
                  net::QueueLimit::of(30));
  }
  topo.monitor(sw[0], sw[1]);  // the tie-break winner: via R2, not R4
  topo.monitor(sw[1], sw[0]);

  core::ConnSpec flows;
  flows.src = "A";
  flows.dst = "B";
  flows.count = 8;
  flows.start_spread = sim::Time::seconds(5.0);
  flows.seed = 42;
  spec.traffic.add(flows);
  core::Scenario sc = core::make_topo_scenario(spec);
  core::print_summary(std::cout, sc.name, core::run_scenario(sc));

  // 3: the same idea in file form.
  std::istringstream text(R"(name mini-dumbbell
host H1
host H2
switch S1
switch S2
link H1 S1 10000000 0.0001 inf inf
link S1 S2 50000 0.01 20 20
link S2 H2 10000000 0.0001 inf inf
monitor S1 S2
monitor S2 S1
flow H1 H2 start=0.5
flow H2 H1 start=1.1
warmup 20
duration 80
)");
  core::Scenario parsed = core::make_topo_scenario(core::parse_topology(text));
  std::cout << '\n';
  core::print_summary(std::cout, "parsed: " + parsed.name,
                      core::run_scenario(parsed));
  return 0;
}
