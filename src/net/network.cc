#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <span>
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
                      QueueLimit queue_b_to_a, const QdiscConfig& qdisc) {
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("link " + nodes_.at(a).node->name() + "-" +
                                nodes_.at(b).node->name() + ": " + what);
  };
  if (bits_per_second <= 0) {
    reject("rate must be > 0 b/s, got " + std::to_string(bits_per_second));
  }
  if (propagation_delay < sim::Time::zero()) {
    reject("delay must be >= 0, got " +
           std::to_string(propagation_delay.ns()) + " ns");
  }
  // Returns the new port and its index among `from`'s ports.
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
    std::uint32_t index = 0;
    if (nodes_[from].host) {
      auto& h = static_cast<Host&>(*nodes_[from].node);
      if (ports_.count({from, to}) || !adjacency_[from].empty()) {
        throw std::logic_error("host " + h.name() + " already has a link");
      }
      h.set_port(std::move(port));
    } else {
      index = static_cast<std::uint32_t>(
          static_cast<Switch&>(*nodes_[from].node).add_port(std::move(port)));
    }
    ports_[{from, to}] = raw;
    return std::pair{raw, index};
  };
  const auto [ab, ab_index] = make_port(a, b, queue_a_to_b);
  const auto [ba, ba_index] = make_port(b, a, queue_b_to_a);
  // A parallel link shadows the older one: port_between, and routing with
  // it, see only the newest port in each direction.
  for (Link& l : adjacency_[a]) {
    if (l.peer == b) l = {b, ab, ba, ab_index};
  }
  for (Link& l : adjacency_[b]) {
    if (l.peer == a) l = {a, ba, ab, ba_index};
  }
  adjacency_[a].push_back({b, ab, ba, ab_index});
  adjacency_[b].push_back({a, ba, ab, ba_index});
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

void Network::compute_routes(std::int64_t route_ref_bytes) {
  constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::max();
  const std::size_t n = nodes_.size();
  // Per-direction port cost in exact integer nanoseconds. The next-hop
  // tie-break and the leaf argument below both need it to be >= 1 ns.
  const auto cost_ns = [&](const OutputPort& p) {
    const std::int64_t ns =
        (sim::Time::transmission(route_ref_bytes, p.bits_per_second()) +
         p.propagation_delay())
            .ns();
    if (ns < 1) {
      throw std::invalid_argument("port " + p.name() + ": route cost " +
                                  std::to_string(ns) + " ns is below 1 ns");
    }
    return ns;
  };
  // Flat edge list, built once: node u's edges are
  // edges[first[u] .. first[u + 1]), in connect() order.
  struct Edge {
    NodeId to;
    std::uint32_t port;   // index of u's port toward `to`
    std::int64_t out_ns;  // u -> to
    std::int64_t in_ns;   // to -> u
  };
  std::vector<std::size_t> first(n + 1);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    first[u] = edges.size();
    for (const Link& l : adjacency_[u]) {
      edges.push_back({l.peer, l.port, cost_ns(*l.out), cost_ns(*l.in)});
    }
  }
  first[n] = edges.size();
  const auto edges_of = [&](NodeId u) {
    return std::span<const Edge>(edges).subspan(first[u],
                                                 first[u + 1] - first[u]);
  };
  for (NodeId u = 0; u < n; ++u) {
    if (!nodes_[u].host) switch_node(u).reset_routes(n);
  }

  // A host is a leaf: connect() gives it exactly one link. For host h on
  // switch s and every node u != h, dist_h(u) = dist_s(u) + cost(s->h), so
  // the next-hop predicate dist[v] + cost(u,v) == dist[u] picks the same
  // neighbours toward h as toward s. One Dijkstra per switch with hosts
  // attached therefore routes all of its hosts; at s the access port is
  // the only candidate. Hosts linked to a host, or to nothing, get no
  // routes.
  std::vector<std::int64_t> dist(n);
  using Entry = std::pair<std::int64_t, NodeId>;
  std::vector<Entry> heap;  // min-heap on (distance, node)
  for (NodeId s = 0; s < n; ++s) {
    if (nodes_[s].host) continue;
    bool has_hosts = false;
    for (const Edge& e : edges_of(s)) {
      if (!nodes_[e.to].host) continue;
      switch_node(s).set_route(e.to, e.port);
      has_hosts = true;
    }
    if (!has_hosts) continue;
    // Dijkstra toward s: dist[v] is the cost of the cheapest v -> s path.
    dist.assign(n, kUnreached);
    dist[s] = 0;
    heap.assign(1, {0, s});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d != dist[u]) continue;  // stale entry
      for (const Edge& e : edges_of(u)) {
        const std::int64_t nd = d + e.in_ns;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          heap.push_back({nd, e.to});
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (nodes_[u].host || dist[u] == kUnreached || u == s) continue;
      // Route toward the neighbour on a shortest path; among equal-cost
      // candidates the smallest node id wins, deterministically.
      const Edge* best = nullptr;
      for (const Edge& e : edges_of(u)) {
        if (dist[e.to] == kUnreached) continue;
        if (dist[e.to] + e.out_ns != dist[u]) continue;
        if (best == nullptr || e.to < best->to) best = &e;
      }
      assert(best != nullptr);
      for (const Edge& e : edges_of(s)) {
        if (nodes_[e.to].host) switch_node(u).set_route(e.to, best->port);
      }
    }
  }
}

}  // namespace tcpdyn::net
