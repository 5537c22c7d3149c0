#include "net/network.h"

#include <cassert>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace tcpdyn::net {

NodeId Network::add_host(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({std::make_unique<Host>(sim_for(id), id, std::move(name),
                                           host_processing_),
                    /*host=*/true});
  static_cast<Host&>(*nodes_.back().node).set_observer(observer_);
  adjacency_.emplace_back();
  return id;
}

NodeId Network::add_switch(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({std::make_unique<Switch>(id, std::move(name)),
                    /*host=*/false});
  adjacency_.emplace_back();
  return id;
}

bool Network::is_host(NodeId id) const { return nodes_.at(id).host; }

Host& Network::host(NodeId id) {
  auto& slot = nodes_.at(id);
  if (!slot.host) throw std::logic_error("node is not a host");
  return static_cast<Host&>(*slot.node);
}

Switch& Network::switch_node(NodeId id) {
  auto& slot = nodes_.at(id);
  if (slot.host) throw std::logic_error("node is not a switch");
  return static_cast<Switch&>(*slot.node);
}

void Network::connect(NodeId a, NodeId b, std::int64_t bits_per_second,
                      sim::Time propagation_delay, QueueLimit queue_a_to_b,
                      QueueLimit queue_b_to_a, DropPolicy policy) {
  QdiscConfig qdisc;
  qdisc.kind = policy == DropPolicy::kRandomDrop ? QdiscKind::kRandomDrop
                                                 : QdiscKind::kDropTail;
  connect(a, b, bits_per_second, propagation_delay, queue_a_to_b,
          queue_b_to_a, qdisc);
}

void Network::connect(NodeId a, NodeId b, std::int64_t bits_per_second,
                      sim::Time propagation_delay, QueueLimit queue_a_to_b,
                      QueueLimit queue_b_to_a, const QdiscConfig& qdisc) {
  auto make_port = [&](NodeId from, NodeId to, QueueLimit limit) {
    // Deterministic per-port seed so random-drop and RED runs reproduce.
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(from) << 32) | (to + 1);
    QdiscConfig config = qdisc;
    config.limit = limit;
    auto port = std::make_unique<OutputPort>(
        sim_for(from),
        nodes_[from].node->name() + "->" + nodes_[to].node->name(),
        bits_per_second, propagation_delay, config, seed);
    port->set_peer(nodes_[to].node.get());
    port->set_observer(observer_);
    OutputPort* raw = port.get();
    if (nodes_[from].host) {
      auto& h = static_cast<Host&>(*nodes_[from].node);
      if (ports_.count({from, to}) || !adjacency_[from].empty()) {
        throw std::logic_error("host " + h.name() + " already has a link");
      }
      h.set_port(std::move(port));
    } else {
      static_cast<Switch&>(*nodes_[from].node).add_port(std::move(port));
    }
    ports_[{from, to}] = raw;
  };
  make_port(a, b, queue_a_to_b);
  make_port(b, a, queue_b_to_a);
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

OutputPort* Network::port_between(NodeId from, NodeId to) {
  auto it = ports_.find({from, to});
  return it == ports_.end() ? nullptr : it->second;
}

void Network::set_observer(PacketObserver* observer) {
  observer_ = observer;
  for (auto& [key, port] : ports_) port->set_observer(observer);
  for (auto& slot : nodes_) {
    if (slot.host) static_cast<Host&>(*slot.node).set_observer(observer);
  }
}

void Network::for_each_port(const std::function<void(OutputPort&)>& fn) {
  for (auto& [key, port] : ports_) fn(*port);
}

void Network::for_each_host(const std::function<void(Host&)>& fn) {
  for (auto& slot : nodes_) {
    if (slot.host) fn(static_cast<Host&>(*slot.node));
  }
}

void Network::set_switch_route(NodeId sw_id, NodeId dst, NodeId via) {
  auto& sw = static_cast<Switch&>(*nodes_[sw_id].node);
  OutputPort* p = port_between(sw_id, via);
  assert(p != nullptr);
  for (std::size_t i = 0; i < sw.port_count(); ++i) {
    if (&sw.port(i) == p) {
      sw.set_route(dst, i);
      return;
    }
  }
  assert(false && "port not owned by its switch");
}

void Network::compute_routes(std::int64_t route_ref_bytes) {
  constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::max();
  // Per-direction link cost in exact integer nanoseconds. Duplex links are
  // symmetric in rate and delay, so cost(u,v) == cost(v,u).
  const auto cost_ns = [&](NodeId from, NodeId to) {
    const OutputPort* p = ports_.at({from, to});
    return (sim::Time::transmission(route_ref_bytes, p->bits_per_second()) +
            p->propagation_delay())
        .ns();
  };
  for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
    if (!nodes_[dst].host) continue;
    // Dijkstra from the destination; the pop order breaks distance ties by
    // smallest node id, and so does the next-hop selection below.
    std::vector<std::int64_t> dist(nodes_.size(), kUnreached);
    using Entry = std::pair<std::int64_t, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
    dist[dst] = 0;
    pq.push({0, dst});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[u]) continue;  // stale entry
      for (NodeId v : adjacency_[u]) {
        const std::int64_t nd = d + cost_ns(v, u);
        if (nd < dist[v]) {
          dist[v] = nd;
          pq.push({nd, v});
        }
      }
    }
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      if (nodes_[u].host || dist[u] == kUnreached || u == dst) continue;
      // Route toward the neighbour on a shortest path; among equal-cost
      // candidates the smallest node id wins, deterministically.
      NodeId best = kInvalidNode;
      for (NodeId v : adjacency_[u]) {
        if (dist[v] == kUnreached) continue;
        if (dist[v] + cost_ns(u, v) != dist[u]) continue;
        if (best == kInvalidNode || v < best) best = v;
      }
      assert(best != kInvalidNode);
      set_switch_route(u, dst, best);
    }
  }
}

}  // namespace tcpdyn::net
