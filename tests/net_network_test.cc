// Switch routing, host demux, and Network topology/route computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/det_context.h"
#include "util/rng.h"

namespace tcpdyn::net {
namespace {

class CollectingSink : public PacketSink {
 public:
  void deliver(const Packet& pkt) override { packets.push_back(pkt); }
  std::vector<Packet> packets;
};

Packet make_packet(ConnId conn, PacketKind kind, NodeId src, NodeId dst) {
  Packet p;
  p.conn = conn;
  p.kind = kind;
  p.size_bytes = kind == PacketKind::kData ? 500 : 50;
  p.src = src;
  p.dst = dst;
  return p;
}

TEST(Network, DumbbellDelivery) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(h1, s1, 10'000'000, sim::Time::microseconds(100),
              QueueLimit::infinite(), QueueLimit::infinite());
  net.connect(s1, s2, 50'000, sim::Time::seconds(0.01), QueueLimit::of(20),
              QueueLimit::of(20));
  net.connect(s2, h2, 10'000'000, sim::Time::microseconds(100),
              QueueLimit::infinite(), QueueLimit::infinite());
  net.compute_routes();

  CollectingSink sink;
  net.host(h2).register_endpoint(1, PacketKind::kData, &sink);
  net.host(h1).send(make_packet(1, PacketKind::kData, h1, h2));
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].conn, 1u);
  // Path delay: 0.4ms + 0.1ms + 80ms + 10ms + 0.4ms + 0.1ms + 0.1ms
  // (two access transmissions, bottleneck, propagations, host processing).
  EXPECT_GT(sim.now(), sim::Time::milliseconds(90));
}

TEST(Network, IsHostAndAccessors) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h = net.add_host("H");
  const NodeId s = net.add_switch("S");
  EXPECT_TRUE(net.is_host(h));
  EXPECT_FALSE(net.is_host(s));
  EXPECT_THROW(net.host(s), std::logic_error);
  EXPECT_THROW(net.switch_node(h), std::logic_error);
  EXPECT_NO_THROW(net.host(h));
  EXPECT_NO_THROW(net.switch_node(s));
}

TEST(Network, HostSingleLinkEnforced) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h = net.add_host("H");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(h, s1, 1000, sim::Time::zero(), QueueLimit::infinite(),
              QueueLimit::infinite());
  EXPECT_THROW(net.connect(h, s2, 1000, sim::Time::zero(),
                           QueueLimit::infinite(), QueueLimit::infinite()),
               std::logic_error);
}

TEST(Network, PortBetween) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_switch("A");
  const NodeId b = net.add_switch("B");
  const NodeId c = net.add_switch("C");
  net.connect(a, b, 1000, sim::Time::zero(), QueueLimit::of(5),
              QueueLimit::of(7));
  EXPECT_NE(net.port_between(a, b), nullptr);
  EXPECT_NE(net.port_between(b, a), nullptr);
  EXPECT_NE(net.port_between(a, b), net.port_between(b, a));
  EXPECT_EQ(net.port_between(a, c), nullptr);
  EXPECT_EQ(net.port_between(a, b)->name(), "A->B");
}

TEST(Network, AsymmetricBuffers) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_switch("A");
  const NodeId b = net.add_switch("B");
  net.connect(a, b, 1000, sim::Time::zero(), QueueLimit::of(5),
              QueueLimit::of(7));
  EXPECT_EQ(net.port_between(a, b)->counters().max_length, 0u);
  // Check the limits went to the right directions via the queue behaviour:
  // fill a->b beyond 5.
  for (int i = 0; i < 10; ++i) {
    Packet p = make_packet(0, PacketKind::kData, 0, 0);
    net.port_between(a, b)->enqueue(std::move(p));
  }
  EXPECT_EQ(net.port_between(a, b)->counters().drops, 10u - 5u);
}

TEST(Network, ChainMultiHopRouting) {
  // H1-S1-S2-S3-H3: a packet from H1 to H3 must traverse both trunks.
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId h3 = net.add_host("H3");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  const NodeId s3 = net.add_switch("S3");
  const auto inf = QueueLimit::infinite();
  net.connect(h1, s1, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(s1, s2, 50'000, sim::Time::milliseconds(1), inf, inf);
  net.connect(s2, s3, 50'000, sim::Time::milliseconds(1), inf, inf);
  net.connect(s3, h3, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.compute_routes();

  int trunk1 = 0, trunk2 = 0;
  net.port_between(s1, s2)->on_depart = [&](sim::Time, const Packet&) {
    ++trunk1;
  };
  net.port_between(s2, s3)->on_depart = [&](sim::Time, const Packet&) {
    ++trunk2;
  };
  CollectingSink sink;
  net.host(h3).register_endpoint(5, PacketKind::kData, &sink);
  net.host(h1).send(make_packet(5, PacketKind::kData, h1, h3));
  sim.run_until(sim::Time::seconds(2.0));
  EXPECT_EQ(trunk1, 1);
  EXPECT_EQ(trunk2, 1);
  ASSERT_EQ(sink.packets.size(), 1u);
}

TEST(Network, SwitchWithoutRouteThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId s = net.add_switch("S");
  Switch& sw = net.switch_node(s);
  Packet p = make_packet(0, PacketKind::kData, 7, 8);
  EXPECT_THROW(sw.receive(std::move(p)), std::logic_error);
}

// What a call throws, as text ("no error" when it returns).
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "no error";
}

TEST(Network, ConnectRejectsNonPositiveRateAndNegativeDelay) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_switch("A");
  const NodeId b = net.add_switch("B");
  const auto inf = QueueLimit::infinite();
  EXPECT_EQ(error_of([&] {
              net.connect(a, b, 0, sim::Time::zero(), inf, inf);
            }),
            "link A-B: rate must be > 0 b/s, got 0");
  EXPECT_EQ(error_of([&] {
              net.connect(a, b, -50'000, sim::Time::zero(), inf, inf);
            }),
            "link A-B: rate must be > 0 b/s, got -50000");
  EXPECT_EQ(error_of([&] {
              net.connect(a, b, 1000, sim::Time::microseconds(-1), inf, inf);
            }),
            "link A-B: delay must be >= 0, got -1000 ns");
  // Nothing was half-built: a valid link afterwards is the only one.
  EXPECT_EQ(net.port_between(a, b), nullptr);
  net.connect(a, b, 1000, sim::Time::zero(), inf, inf);
  EXPECT_EQ(net.switch_node(a).port_count(), 1u);
}

TEST(Network, RouteCostBelowOneNanosecondThrows) {
  // 500 B at 5e12 b/s truncates to 0 ns; with no delay the route cost is 0.
  sim::Simulator sim;
  Network net(sim);
  const NodeId h = net.add_host("H");
  const NodeId s = net.add_switch("S");
  const NodeId t = net.add_switch("T");
  const auto inf = QueueLimit::infinite();
  net.connect(h, s, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(s, t, 5'000'000'000'000, sim::Time::zero(), inf, inf);
  EXPECT_EQ(error_of([&] { net.compute_routes(); }),
            "port S->T: route cost 0 ns is below 1 ns");
  // A 1 ns delay is enough.
  sim::Simulator sim2;
  Network ok(sim2);
  ok.add_host("H");
  ok.add_switch("S");
  ok.add_switch("T");
  ok.connect(0, 1, 10'000'000, sim::Time::microseconds(100), inf, inf);
  ok.connect(1, 2, 5'000'000'000'000, sim::Time::nanoseconds(1), inf, inf);
  EXPECT_NO_THROW(ok.compute_routes());
  EXPECT_TRUE(ok.switch_node(2).has_route(0));
}

// The per-host Dijkstra compute_routes used to run, kept as the reference:
// one run from every host over the costs of the ports port_between returns,
// then for every reached switch the smallest-id neighbour on a shortest
// path. Maps (switch, host) to the next-hop node id.
std::map<std::pair<NodeId, NodeId>, NodeId> per_host_dijkstra(
    Network& net, const std::vector<std::vector<NodeId>>& adjacency,
    std::int64_t ref_bytes) {
  constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::max();
  const auto cost_ns = [&](NodeId from, NodeId to) {
    const OutputPort* p = net.port_between(from, to);
    return (sim::Time::transmission(ref_bytes, p->bits_per_second()) +
            p->propagation_delay())
        .ns();
  };
  const std::size_t n = net.node_count();
  std::map<std::pair<NodeId, NodeId>, NodeId> via;
  for (NodeId dst = 0; dst < n; ++dst) {
    if (!net.is_host(dst)) continue;
    std::vector<std::int64_t> dist(n, kUnreached);
    using Entry = std::pair<std::int64_t, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
    dist[dst] = 0;
    pq.push({0, dst});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[u]) continue;
      for (NodeId v : adjacency[u]) {
        const std::int64_t nd = d + cost_ns(v, u);
        if (nd < dist[v]) {
          dist[v] = nd;
          pq.push({nd, v});
        }
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (net.is_host(u) || dist[u] == kUnreached || u == dst) continue;
      NodeId best = kInvalidNode;
      for (NodeId v : adjacency[u]) {
        if (dist[v] == kUnreached) continue;
        if (dist[v] + cost_ns(u, v) != dist[u]) continue;
        if (best == kInvalidNode || v < best) best = v;
      }
      via[{u, dst}] = best;
    }
  }
  return via;
}

// Seeded random graphs, compared next hop by next hop against the per-host
// reference. Two components of switches (so half the hosts are unreachable
// from any one switch), zero to three hosts per switch, few distinct rates
// and delays (many equal-cost ties), directions retuned apart, the odd
// parallel trunk (the newer one shadows the older), an isolated host-host
// pair, a host with no link, and node ids interleaved between hosts and
// switches.
TEST(Routes, MatchPerHostDijkstra) {
  const std::int64_t kRates[] = {1'000'000, 4'000'000};
  const sim::Time kDelays[] = {sim::Time::zero(), sim::Time::microseconds(3)};
  const auto inf = QueueLimit::infinite();
  std::size_t compared = 0, routed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    sim::Simulator sim;
    Network net(sim);
    std::vector<std::vector<NodeId>> adjacency;
    const auto add = [&](bool host) {
      const std::string name = std::to_string(adjacency.size());
      adjacency.emplace_back();
      return host ? net.add_host("H" + name) : net.add_switch("S" + name);
    };
    const auto link = [&](NodeId a, NodeId b) {
      net.connect(a, b, kRates[rng.next_below(2)], kDelays[rng.next_below(2)],
                  inf, inf);
      adjacency[a].push_back(b);
      adjacency[b].push_back(a);
    };
    std::vector<std::vector<NodeId>> components(2);
    std::vector<NodeId> hosts_to_attach;
    const std::size_t switches = 2 + rng.next_below(12);
    for (std::size_t i = 0; i < switches; ++i) {
      const NodeId sw = add(false);
      components[i < switches / 2 ? 0 : 1].push_back(sw);
      for (std::size_t h = rng.next_below(4); h > 0; --h) {
        hosts_to_attach.push_back(add(true));
        hosts_to_attach.push_back(sw);
      }
    }
    const NodeId pair_a = add(true);
    const NodeId pair_b = add(true);
    link(pair_a, pair_b);
    add(true);  // no link at all
    for (const auto& comp : components) {
      // A random tree, then extra trunks, some of them parallel.
      for (std::size_t i = 1; i < comp.size(); ++i) {
        link(comp[i], comp[rng.next_below(i)]);
      }
      for (std::size_t k = comp.size(); k > 0 && comp.size() > 1; --k) {
        const NodeId a = comp[rng.next_below(comp.size())];
        const NodeId b = comp[rng.next_below(comp.size())];
        if (a != b) link(a, b);
      }
    }
    for (std::size_t i = 0; i < hosts_to_attach.size(); i += 2) {
      link(hosts_to_attach[i], hosts_to_attach[i + 1]);
    }
    // Retune some single directions, so a link's two costs can differ.
    net.for_each_port([&](OutputPort& p) {
      if (rng.next_below(4) == 0) p.set_rate(kRates[rng.next_below(2)]);
      if (rng.next_below(4) == 0) {
        p.set_propagation_delay(kDelays[rng.next_below(2)]);
      }
    });
    net.compute_routes();
    const auto want = per_host_dijkstra(net, adjacency, 500);

    for (NodeId u = 0; u < net.node_count(); ++u) {
      if (net.is_host(u)) continue;
      const Switch& sw = net.switch_node(u);
      for (NodeId h = 0; h < net.node_count(); ++h) {
        const auto it = want.find({u, h});
        const std::optional<std::size_t> port = sw.route_port(h);
        ++compared;
        if (!net.is_host(h) || it == want.end()) {
          EXPECT_FALSE(port.has_value()) << "seed " << seed << " " << u
                                         << " -> " << h;
          continue;
        }
        ++routed;
        ASSERT_TRUE(port.has_value()) << "seed " << seed << " " << u << " -> "
                                      << h;
        EXPECT_EQ(&sw.port(*port), net.port_between(u, it->second))
            << "seed " << seed << " " << u << " -> " << h;
      }
    }
    EXPECT_FALSE(net.switch_node(components[0][0]).has_route(pair_a));
    EXPECT_FALSE(net.switch_node(components[0][0]).has_route(pair_b));
  }
  EXPECT_GT(routed, 500u);
  EXPECT_GT(compared, routed);
}

TEST(Routes, ReceiveThrowsWithoutRoute) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId s1 = net.add_switch("S1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s2 = net.add_switch("S2");
  const auto inf = QueueLimit::infinite();
  net.connect(h1, s1, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(h2, s2, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.compute_routes();
  Switch& sw = net.switch_node(s1);
  ASSERT_TRUE(sw.route_port(h1).has_value());
  // H2 hangs off S2, which S1 cannot reach.
  EXPECT_FALSE(sw.route_port(h2).has_value());
  EXPECT_EQ(error_of([&] {
              sw.receive(make_packet(0, PacketKind::kData, h1, h2));
            }),
            "S1: no route to node 2");
  // Past the table's end: a node added after compute_routes, or any id.
  const NodeId late = net.add_host("H3");
  EXPECT_FALSE(sw.route_port(late).has_value());
  EXPECT_THROW(sw.receive(make_packet(0, PacketKind::kData, h1, late)),
               std::logic_error);
  EXPECT_THROW(sw.receive(make_packet(0, PacketKind::kData, h1, 1'000'000)),
               std::logic_error);
  // Switches are not destinations.
  EXPECT_FALSE(sw.route_port(s2).has_value());
}

TEST(Node, IdMustFitTheDetKeySpace) {
  // kDetCtxMaxId is every simulator's engine context; node ids stay below.
  EXPECT_NO_THROW(Switch(sim::kDetCtxMaxId - 1, "last"));
  try {
    Switch sw(sim::kDetCtxMaxId, "x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "node id 16777215 exceeds the deterministic-key id space "
                 "(ids must be < 16777215)");
  }
}

TEST(Host, DemuxByConnAndKind) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s = net.add_switch("S");
  const auto inf = QueueLimit::infinite();
  net.connect(h1, s, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(s, h2, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.compute_routes();

  CollectingSink data1, ack1, data2;
  net.host(h2).register_endpoint(1, PacketKind::kData, &data1);
  net.host(h2).register_endpoint(1, PacketKind::kAck, &ack1);
  net.host(h2).register_endpoint(2, PacketKind::kData, &data2);

  net.host(h1).send(make_packet(1, PacketKind::kData, h1, h2));
  net.host(h1).send(make_packet(1, PacketKind::kAck, h1, h2));
  net.host(h1).send(make_packet(2, PacketKind::kData, h1, h2));
  sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(data1.packets.size(), 1u);
  EXPECT_EQ(ack1.packets.size(), 1u);
  EXPECT_EQ(data2.packets.size(), 1u);
}

TEST(Host, UnregisteredConnectionThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s = net.add_switch("S");
  const auto inf = QueueLimit::infinite();
  net.connect(h1, s, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(s, h2, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.compute_routes();
  net.host(h1).send(make_packet(9, PacketKind::kData, h1, h2));
  EXPECT_THROW(sim.run_until(sim::Time::seconds(1.0)), std::logic_error);
}

// The demux miss path: a packet no endpoint takes goes to the miss handler,
// which may build (and register) its endpoint or hand it to one that
// ignores it. Either way the host counts and observes it like any delivered
// packet; a null answer is the unregistered-connection error.
TEST(Host, MissPathBuildsOrIgnoresAndStillCounts) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s = net.add_switch("S");
  const auto inf = QueueLimit::infinite();
  net.connect(h1, s, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(s, h2, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.compute_routes();
  Host& host = net.host(h2);
  CollectingSink built;
  CollectingSink ignored;
  int misses = 0;
  int hooked = 0;
  host.on_deliver = [&](sim::Time, const Packet&) { ++hooked; };
  host.set_miss_handler([&](const Packet& p) -> PacketSink* {
    ++misses;
    if (p.conn == 9) return nullptr;
    if (is_ack(p)) return &ignored;
    host.register_endpoint(p.conn, PacketKind::kData, &built);
    return &built;
  });
  for (int k = 0; k < 2; ++k) {
    net.host(h1).send(make_packet(1, PacketKind::kData, h1, h2));
  }
  net.host(h1).send(make_packet(1, PacketKind::kAck, h1, h2));
  sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(misses, 2);  // the first data packet and the ACK
  EXPECT_EQ(built.packets.size(), 2u);
  EXPECT_EQ(ignored.packets.size(), 1u);
  EXPECT_EQ(hooked, 3);
  EXPECT_EQ(host.counters().delivered, 3u);
  EXPECT_EQ(host.endpoint_count(), 1u);
  host.unregister_endpoint(1, PacketKind::kData);
  EXPECT_EQ(host.endpoint_count(), 0u);

  net.host(h1).send(make_packet(9, PacketKind::kData, h1, h2));
  EXPECT_THROW(sim.run_until(sim::Time::seconds(2.0)), std::logic_error);
  EXPECT_EQ(host.counters().delivered, 3u);
}

// The endpoint table under session churn, the pattern of a sender host
// whose sessions come and go: 10^4 register/unregister cycles with at most
// 64 sessions live keep endpoint_count() exact. A re-registration
// overwrites, and an unregistered endpoint's packet takes the miss path and
// is still counted.
TEST(Host, EndpointChurnKeepsCountExact) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h1 = net.add_host("H1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s = net.add_switch("S");
  const auto inf = QueueLimit::infinite();
  net.connect(h1, s, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.connect(s, h2, 10'000'000, sim::Time::microseconds(100), inf, inf);
  net.compute_routes();
  Host& host = net.host(h2);
  CollectingSink first;
  CollectingSink second;
  CollectingSink missed;
  int misses = 0;
  host.set_miss_handler([&](const Packet&) -> PacketSink* {
    ++misses;
    return &missed;
  });
  constexpr ConnId kLive = 64;
  for (ConnId c = 0; c < 10'000; ++c) {
    host.register_endpoint(c, PacketKind::kData, &first);
    host.register_endpoint(c, PacketKind::kAck, &first);
    if (c >= kLive) {
      host.unregister_endpoint(c - kLive, PacketKind::kData);
      host.unregister_endpoint(c - kLive, PacketKind::kAck);
    }
    ASSERT_EQ(host.endpoint_count(), 2 * std::min<std::size_t>(c + 1, kLive));
  }
  host.unregister_endpoint(5, PacketKind::kData);  // long gone: no effect
  EXPECT_EQ(host.endpoint_count(), 2 * kLive);

  const ConnId live = 10'000 - 1;
  host.register_endpoint(live, PacketKind::kData, &second);  // overwrites
  EXPECT_EQ(host.endpoint_count(), 2 * kLive);
  net.host(h1).send(make_packet(live, PacketKind::kData, h1, h2));
  net.host(h1).send(make_packet(live, PacketKind::kAck, h1, h2));
  net.host(h1).send(make_packet(7, PacketKind::kData, h1, h2));
  sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(second.packets.size(), 1u);
  EXPECT_EQ(first.packets.size(), 1u);
  EXPECT_EQ(missed.packets.size(), 1u);
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(host.counters().delivered, 3u);
}

TEST(Host, ProcessingDelayApplied) {
  sim::Simulator sim;
  Network net(sim, sim::Time::milliseconds(5));  // exaggerated for the test
  const NodeId h1 = net.add_host("H1");
  const NodeId h2 = net.add_host("H2");
  const NodeId s = net.add_switch("S");
  const auto inf = QueueLimit::infinite();
  // Instant links so only processing delay remains.
  net.connect(h1, s, 1'000'000'000, sim::Time::zero(), inf, inf);
  net.connect(s, h2, 1'000'000'000, sim::Time::zero(), inf, inf);
  net.compute_routes();
  CollectingSink sink;
  net.host(h2).register_endpoint(1, PacketKind::kData, &sink);
  sim::Time delivered;
  net.host(h2).on_deliver = [&](sim::Time t, const Packet&) { delivered = t; };
  net.host(h1).send(make_packet(1, PacketKind::kData, h1, h2));
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.packets.size(), 1u);
  // 500B at 1 Gbps = 4 us per hop (x2) + 5 ms host processing.
  EXPECT_EQ(delivered, sim::Time::milliseconds(5) + sim::Time::microseconds(8));
}

TEST(Host, SendWithoutLinkThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId h = net.add_host("H");
  EXPECT_THROW(net.host(h).send(make_packet(0, PacketKind::kData, h, h)),
               std::logic_error);
}

}  // namespace
}  // namespace tcpdyn::net
