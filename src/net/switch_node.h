// Packet switch: per-outgoing-link FIFO drop-tail queues and a static
// routing table (destination host -> output port). Switching latency is
// zero; all delay comes from queueing, serialization, and propagation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/node.h"
#include "net/port.h"

namespace tcpdyn::net {

class Switch : public Node {
 public:
  Switch(NodeId id, std::string name) : Node(id, std::move(name)) {}

  // Takes ownership of an output port; returns its index.
  std::size_t add_port(std::unique_ptr<OutputPort> port);

  OutputPort& port(std::size_t index) { return *ports_[index]; }
  const OutputPort& port(std::size_t index) const { return *ports_[index]; }
  std::size_t port_count() const { return ports_.size(); }

  // Dense next-hop table indexed by destination NodeId. reset_routes sizes
  // it for `node_count` nodes with no route anywhere; set_route then routes
  // packets destined to host `dst` out of port `port_index`.
  void reset_routes(std::size_t node_count);
  void set_route(NodeId dst, std::size_t port_index);
  // The output port index toward `dst`; nullopt when there is no route
  // (dst past the table's end, or unreachable).
  std::optional<std::size_t> route_port(NodeId dst) const {
    if (dst >= routes_.size() || routes_[dst] == kNoRoute) return std::nullopt;
    return routes_[dst];
  }
  bool has_route(NodeId dst) const { return route_port(dst).has_value(); }

  void receive(Packet pkt) override;

 private:
  static constexpr std::uint32_t kNoRoute = UINT32_MAX;

  std::vector<std::unique_ptr<OutputPort>> ports_;
  std::vector<std::uint32_t> routes_;  // by NodeId; kNoRoute = none
};

}  // namespace tcpdyn::net
