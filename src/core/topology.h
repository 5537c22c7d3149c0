// Topology + TrafficMatrix: the general scenario-building layer.
//
// A Topology is a declarative description of an arbitrary network graph —
// named hosts and switches, duplex links with rate/delay/buffer/discipline,
// and which transmit ports to monitor. compile() materializes it onto an
// Experiment: nodes are created in declaration order (so the topology index
// IS the net::NodeId), links in declaration order, static shortest-path
// routes are computed with Dijkstra over link serialization+propagation cost
// (distance ties broken by smallest node id), and monitors attach in
// monitor() call order. The paper's graphs are Topologies too
// (dumbbell_topology, chain_topology), declared in the order of their
// historic hand-rolled construction, so they compile to identical networks.
//
// A TrafficMatrix is the flow-schedule layer: an ordered list of ConnSpecs,
// each expanding to `count` flows whose start jitter is drawn from the
// spec's own seeded RNG stream, instantiated against a compiled topology by
// resolving named endpoints.
//
// A TopoSpec bundles a Topology, its TrafficMatrix, a FaultPlan and the run
// parameters: the one description of a scenario, which make_topo_scenario
// (core/scenarios.h) and the sharded engine both run. parse_topology()
// reads it from a text file (the `tcpdyn_run topo --file=...` path); see
// examples/topos/*.topo.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/conn_spec.h"
#include "core/experiment.h"
#include "core/fault_plan.h"

namespace tcpdyn::core {

// One duplex link between two topology node indices.
struct LinkSpec {
  std::size_t a = 0;
  std::size_t b = 0;
  std::int64_t bits_per_second = 10'000'000;
  sim::Time delay = sim::Time::microseconds(100);
  net::QueueLimit buffer_ab = net::QueueLimit::infinite();
  net::QueueLimit buffer_ba = net::QueueLimit::infinite();
  // Both directions run this discipline, each with its own buffer limit
  // above (the config's own limit is not read).
  net::QdiscConfig qdisc;
};

// The result of compiling a Topology: topology node index -> net::NodeId
// (currently the identity, by construction) plus name lookup.
struct CompiledTopology {
  std::vector<net::NodeId> node_ids;          // by declaration index
  std::map<std::string, net::NodeId> by_name;

  // NodeId of a named node; throws std::out_of_range for unknown names.
  net::NodeId id(const std::string& name) const;
};

class Topology {
 public:
  // Declares a node; names must be unique within the topology. Returns the
  // node's topology index (== its eventual net::NodeId).
  std::size_t add_host(std::string name);
  std::size_t add_switch(std::string name);

  // Declares a duplex link. Endpoints must already be declared; a host may
  // appear in at most one link (its access link). The rate must be > 0 b/s
  // and the delay >= 0.
  void add_link(const LinkSpec& link);
  // Convenience: symmetric buffers, drop-tail unless `qdisc` says otherwise.
  void add_link(std::size_t a, std::size_t b, std::int64_t bits_per_second,
                sim::Time delay,
                net::QueueLimit buffer = net::QueueLimit::infinite(),
                const net::QdiscConfig& qdisc = {});

  // Marks the transmit port a->b for monitoring; ExperimentResult ports are
  // ordered by monitor() call order. The link must exist.
  void monitor(std::size_t a, std::size_t b);

  // Topology index of a named node; throws std::out_of_range if unknown.
  std::size_t index(const std::string& name) const;
  bool has_node(const std::string& name) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t host_count() const;
  std::size_t link_count() const { return links_.size(); }
  std::size_t monitor_count() const { return monitors_.size(); }
  const std::vector<LinkSpec>& links() const { return links_; }

  // The first node, in declaration order, that no chain of links reaches
  // from node 0; nullopt when every node is reached (or none is declared).
  std::optional<std::size_t> first_unreachable() const;
  // "node 'X' is unreachable from 'N0'", X the node at `node`.
  std::string unreachable_message(std::size_t node) const;

  // Builds the described network inside `exp`, computes Dijkstra routes
  // (Network::compute_routes, reference packet `route_ref_bytes`), and
  // attaches the monitors. Throws std::invalid_argument if the graph is
  // disconnected (a packet would hit a switch with no route). May be called
  // once per Experiment.
  CompiledTopology compile(Experiment& exp,
                           std::int64_t route_ref_bytes = 500) const;

 private:
  struct NodeDecl {
    std::string name;
    bool host = false;
  };

  std::size_t add_node(std::string name, bool host);
  void check_connected() const;

  std::vector<NodeDecl> nodes_;
  std::map<std::string, std::size_t> index_;
  std::vector<LinkSpec> links_;
  std::vector<std::pair<std::size_t, std::size_t>> monitors_;
  std::vector<std::size_t> host_link_count_;  // per node, for validation
};

// Ordered flow schedule instantiated against a compiled topology.
class TrafficMatrix {
 public:
  // Appends a spec; returns its index. Endpoint names resolve at
  // instantiation.
  std::size_t add(ConnSpec spec);

  const std::vector<ConnSpec>& specs() const { return specs_; }
  // Total flows across all specs (sum of counts).
  std::size_t flow_count() const;

  // Expands every spec into its flows and adds them to `exp`, resolving
  // named endpoints via `topo`. Connection ids are assigned densely in spec
  // order starting at exp.connection_count(). Start jitter for spec k's
  // flows is drawn from Rng(spec.seed), one uniform draw per flow, so specs
  // never perturb each other. Returns the number of flows added. Throws
  // std::out_of_range for an endpoint `topo` does not name.
  std::size_t instantiate(Experiment& exp, const CompiledTopology& topo) const;

 private:
  std::vector<ConnSpec> specs_;
};

// A parsed topology-file scenario: graph, traffic, run parameters, and any
// fault schedule declared alongside them.
struct TopoSpec {
  std::string name = "topo";
  Topology topo;
  TrafficMatrix traffic;
  FaultPlan faults;
  sim::Time warmup = sim::Time::seconds(100.0);
  sim::Time duration = sim::Time::seconds(400.0);
  double epoch_gap_sec = 2.0;
  std::uint64_t seed = 1;  // base seed for specs without an explicit seed
  // Large-scale knobs, applied to the Experiment before the topology is
  // compiled and the traffic instantiated: streaming monitors keep O(1)
  // state per port, and turning per-flow traces off leaves flows with
  // aggregate counters only (see Experiment::set_flow_instrumentation).
  MonitorMode monitor_mode = MonitorMode::kFull;
  bool per_flow_traces = true;
};

// Parses the text topology format (see examples/topos/*.topo). Each number
// is read by its field's kind (util/value.h; README "Input values" lists
// every field's rule and message):
//   name NAME                  scenario name
//   host NAME | switch NAME    node declarations
//   link A B BPS DELAY_SEC BUF_AB BUF_BA
//        [droptail|randomdrop|red|red-ecn|drr]
//        [min_th=N] [max_th=N] [wq_shift=N] [max_p=P] [quantum=BYTES]
//                              BUF is packets (>= 1) or "inf"; the key=value
//                              options tune RED (red/red-ecn, with
//                              min_th < max_th, wq_shift <= 63 and max_p
//                              rounding to >= 1/65536) or DRR
//                              (quantum >= 1); an option of another
//                              discipline is an error
//   monitor A B                trace the A->B transmit port
//   flow SRC DST [count=N] [kind=tahoe|reno|fixed] [window=W] [start=SEC]
//        [spread=SEC] [stop=SEC] [seed=N] [maxwnd=W] [delayed_ack=0|1]
//        [ecn=0|1] [pacing=SEC] [data=BYTES] [ack=BYTES]
//        [rate=PER_SEC] [session=SEC]
//                              rate > 0 turns the count flows into an
//                              open-loop Poisson session process (see
//                              ConnSpec::arrival_rate)
//   fault down|rate|delay|loss|gilbert|corrupt|reorder|seed ...
//                              mid-run link events (see core/fault_plan.h),
//                              each with its line as origin; a down, rate
//                              or delay event must not fall after
//                              warmup + duration
//   warmup SEC | duration SEC | epoch_gap SEC | seed N
// '#' starts a comment. Throws std::invalid_argument with the line number
// on malformed input.
TopoSpec parse_topology(std::istream& in);
TopoSpec load_topology_file(const std::string& path);

}  // namespace tcpdyn::core
