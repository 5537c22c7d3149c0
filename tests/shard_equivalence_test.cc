// Shard-count invariance lock for the ShardedEngine: the same TopoSpec must
// produce a bit-for-bit identical ExperimentResult on the serial
// Experiment::run path and at --shards 1, 2, and 4 (every run orders events
// by the same deterministic keys). Each shard's scheduler holds only its
// own shard's pending events, so the runs compared here also order events
// in heaps of different sizes and shapes. The digest covers every
// per-connection counter, every monitored-port counter,
// the full cwnd trajectories (hashed over the raw doubles), the drop log
// size, and the conservation-audit totals — if any event executes in a
// different order on any shard layout, some counter or cwnd sample moves
// and the digest diverges.
//
// Scenarios span the regimes the engine has to get right: the paper
// factories' own one-way and two-way dumbbells (fig2, fig6), the
// several-hosts-per-switch dumbbell of the RTT study and the §5
// four-switch chain, the chaos dumbbell (fault timers + Gilbert-Elliott
// impairments on the cut link), the parking-lot chain (multi-switch, cross
// traffic on every hop), and datacenter incast with open-loop session
// churn (star partition, tiny lookahead).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "core/scenarios.h"
#include "core/shard_engine.h"
#include "core/topo_scenarios.h"
#include "core/topology.h"

namespace tcpdyn::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

std::string digest(const ExperimentResult& r) {
  std::string out;
  char buf[256];
  for (const auto& [id, c] : r.senders) {
    std::snprintf(buf, sizeof(buf),
                  "c%u sent=%" PRIu64 " retx=%" PRIu64 " acks=%" PRIu64
                  " dup=%" PRIu64 " to=%" PRIu64 " dlv=%" PRIu64 "\n",
                  id, c.data_sent, c.retransmits, c.acks_received,
                  c.dup_ack_losses, c.timeout_losses, r.delivered.at(id));
    out += buf;
  }
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    const auto& q = r.ports[i].counters;
    std::snprintf(buf, sizeof(buf),
                  "p%zu arr=%" PRIu64 " dep=%" PRIu64 " drop=%" PRIu64
                  " ddrop=%" PRIu64 " adrop=%" PRIu64 " max=%zu qn=%zu\n",
                  i, q.arrivals, q.departures, q.drops, q.data_drops,
                  q.ack_drops, q.max_length, r.ports[i].queue.size());
    out += buf;
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [id, series] : r.cwnd) {
    h = fnv1a(h, id);
    for (const auto& pt : series.points()) {
      h = hash_double(h, pt.time);
      h = hash_double(h, pt.value);
    }
  }
  for (const auto& [id, samples] : r.rtt_samples) {
    h = fnv1a(h, id);
    for (const auto& [t, v] : samples) {
      h = hash_double(h, t);
      h = hash_double(h, v);
    }
  }
  std::snprintf(buf, sizeof(buf),
                "drops=%zu hash=%016" PRIx64 " created=%" PRIu64
                " delivered=%" PRIu64 " dropped=%" PRIu64 "\n",
                r.drops.size(), h, r.audit.created, r.audit.delivered,
                r.audit.dropped);
  out += buf;
  return out;
}

std::string serial_digest(const TopoSpec& spec) {
  Scenario sc = make_topo_scenario(spec);
  sc.exp->set_audit_mode(AuditMode::kFull);
  return digest(sc.exp->run(sc.warmup, sc.duration));
}

std::string sharded_digest(const TopoSpec& spec, std::size_t shards) {
  ShardedEngine engine(spec, shards, AuditMode::kFull);
  return digest(engine.run());
}

// Asserts the serial path and shards {1, 2, 4} are all byte-identical.
void expect_invariant(const TopoSpec& spec) {
  const std::string ref = serial_digest(spec);
  ASSERT_FALSE(ref.empty());
  for (const std::size_t shards : {1, 2, 4}) {
    EXPECT_EQ(sharded_digest(spec, shards), ref)
        << spec.name << ": shards=" << shards;
  }
}

// The paper factories' own specs, cut to 20 s of warmup plus 80 s.
TopoSpec short_run(TopoSpec spec) {
  spec.warmup = sim::Time::seconds(20.0);
  spec.duration = sim::Time::seconds(80.0);
  return spec;
}

TEST(ShardEquivalence, Fig2OneWayDumbbell) {
  expect_invariant(short_run(fig2_one_way(3, 0.01, 20)));
}

TEST(ShardEquivalence, Fig6TwoWayLargePipe) {
  expect_invariant(short_run(fig6_twoway(1.0, 20)));
}

// Four hosts on each switch, each behind its own access delay.
TEST(ShardEquivalence, RttHeterogeneity) {
  expect_invariant(short_run(rtt_heterogeneity(4, 0.16)));
}

// The §5 chain: four switches, flows of one to three hops.
TEST(ShardEquivalence, FourSwitchChain) {
  expect_invariant(short_run(four_switch_chain(12, 7)));
}

TEST(ShardEquivalence, ChaosFaultedDumbbell) {
  ChaosParams p;
  p.flows = 2;
  p.warmup_sec = 20.0;
  p.duration_sec = 150.0;
  p.flap_period_sec = 40.0;
  p.flaps = 2;
  expect_invariant(chaos_spec(p));
}

TEST(ShardEquivalence, ParkingLotChain) {
  ParkingLotParams p;
  p.hops = 3;
  p.long_flows = 12;
  p.cross_per_hop = 8;
  p.warmup_sec = 5.0;
  p.duration_sec = 20.0;
  expect_invariant(parking_lot_spec(p));
}

TEST(ShardEquivalence, IncastChurn) {
  IncastParams p;
  p.senders = 12;
  p.flows_per_sender = 2;
  p.arrival_rate = 0.4;
  p.session_sec = 2.0;
  p.warmup_sec = 5.0;
  p.duration_sec = 25.0;
  expect_invariant(incast_spec(p));
}

// Dense session churn: 32 senders, each opening 400 sessions/s, and 5 ms
// links, so the run takes 100 barrier rounds of 5 ms with ~64 arrivals
// each. The sessions last 50 ms (two to three round trips), so about as
// many senders retire. At 4 shards (7, 1, 1 and 23 senders) each shard
// built a sender in at least 90 of the 100 rounds and retired one in at
// least 80 (none can retire in the first 10). S1 also sends a closed flow
// declared before its sessions and one after them, so its context
// reserves ties around a block of session ties; S2 adds sessions that all
// stop at the spec's stop time (the later ones arrive after it and never
// send) and S3 sessions that never stop. About a sixth of the sessions
// arrive after the run's end. The serial digest is pinned as well: it is
// the digest of the build that made every session at setup.
TopoSpec dense_churn(bool traces) {
  IncastParams p;
  p.senders = 32;
  p.flows_per_sender = 240;
  p.arrival_rate = 400.0;
  p.session_sec = 0.05;
  p.link_bps = 10'000'000;
  p.access_delay_sec = 0.005;
  p.link_delay_sec = 0.005;
  p.warmup_sec = 0.1;
  p.duration_sec = 0.4;
  p.per_flow_traces = traces;
  const TopoSpec churn = incast_spec(p);
  TopoSpec spec = churn;
  spec.name = "dense-churn";
  spec.traffic = TrafficMatrix();
  ConnSpec closed;
  closed.src = "S1";
  closed.dst = "R";
  closed.start_time = sim::Time::seconds(0.05);
  spec.traffic.add(closed);
  for (const ConnSpec& s : churn.traffic.specs()) spec.traffic.add(s);
  ConnSpec until = churn.traffic.specs()[1];  // S2
  until.count = 40;
  until.seed = 99;
  until.session_time = sim::Time::zero();
  until.stop_time = sim::Time::seconds(0.2);
  spec.traffic.add(until);
  ConnSpec forever = churn.traffic.specs()[2];  // S3
  forever.count = 3;
  forever.arrival_rate = 20.0;
  forever.seed = 7;
  forever.session_time = sim::Time::zero();
  spec.traffic.add(forever);
  closed.start_time = sim::Time::seconds(0.12);
  closed.stop_time = sim::Time::seconds(0.3);
  spec.traffic.add(closed);
  return spec;
}

// One line per digest: an FNV-1a hash of its text and its last line.
std::string pinned(const std::string& digest) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : digest) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  const std::size_t last = digest.rfind('\n', digest.size() - 2);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "text=%016" PRIx64 " ", h);
  return buf + digest.substr(last + 1);
}

TEST(ShardEquivalence, DenseSessionChurnTraced) {
  const TopoSpec spec = dense_churn(true);
  expect_invariant(spec);
  EXPECT_EQ(pinned(serial_digest(spec)),
            "text=8370c32194235233 drops=7230 hash=f7f7681b1437fb48"
            " created=9845 delivered=2421 dropped=7230\n");
}

TEST(ShardEquivalence, DenseSessionChurnUntraced) {
  const TopoSpec spec = dense_churn(false);
  expect_invariant(spec);
  EXPECT_EQ(pinned(serial_digest(spec)),
            "text=395ae1c438752546 drops=7230 hash=14650fb0739d0383"
            " created=9845 delivered=2421 dropped=7230\n");
}

// Two flows start at the same instant and cross on the trunk (A->D beside
// B->C), so their first packets tie at S1 on (firing time, birth time) and
// the emitting context's id decides which the queue serves first. Each
// connection's start must key under its source host whether or not the
// receiver shares the source's shard, or 2 shards serve the pair in the
// opposite order to serial.
TEST(ShardEquivalence, SimultaneousStartsAcrossTheCut) {
  TopoSpec spec;
  spec.name = "crossed-starts";
  Topology& t = spec.topo;
  const std::size_t a = t.add_host("A");
  const std::size_t b = t.add_host("B");
  const std::size_t c = t.add_host("C");
  const std::size_t d = t.add_host("D");
  const std::size_t s1 = t.add_switch("S1");
  const std::size_t s2 = t.add_switch("S2");
  const net::QueueLimit inf = net::QueueLimit::infinite();
  for (const std::size_t h : {a, b}) {
    t.add_link(h, s1, 10'000'000, sim::Time::microseconds(100), inf);
  }
  for (const std::size_t h : {c, d}) {
    t.add_link(h, s2, 10'000'000, sim::Time::microseconds(100), inf);
  }
  t.add_link(s1, s2, 50'000, sim::Time::milliseconds(10),
             net::QueueLimit::of(5));
  t.monitor(s1, s2);
  for (const auto& [src, dst] : {std::pair{"A", "D"}, std::pair{"B", "C"}}) {
    ConnSpec flow;
    flow.src = src;
    flow.dst = dst;
    flow.start_time = sim::Time::seconds(1.0);
    spec.traffic.add(flow);
  }
  spec.warmup = sim::Time::seconds(2.0);
  spec.duration = sim::Time::seconds(20.0);
  expect_invariant(spec);
}

// A six-switch mesh in the shape of the mesh_zoo benchmark: trunks cycle
// drop-tail, RED+ECN and DRR, flows run the five adaptive controllers with
// ECN, and one drop-tail trunk declares 10^19-packet buffers. Each shard's
// thread then grows its own ports' rings, DRR pools and flow indexes, and
// its hosts' endpoint tables; the digest must not depend on how.
TEST(ShardEquivalence, DrrRedMesh) {
  std::istringstream in(
      "name drr_red_mesh\n"
      "switch W1\nswitch W2\nswitch W3\nswitch W4\nswitch W5\nswitch W6\n"
      "host H1\nhost H2\nhost H3\nhost H4\nhost H5\nhost H6\n"
      "link W1 W2 1000000 0.005 30 30 droptail\n"
      "link W2 W3 1000000 0.005 30 30 red-ecn\n"
      "link W1 W4 1000000 0.005 30 30 drr\n"
      "link W3 W6 1000000 0.005 30 30 droptail\n"
      "link W4 W5 1000000 0.005 30 30 red-ecn\n"
      "link W5 W6 1000000 0.005 30 30 drr\n"
      "link W2 W5 1000000 0.005 10000000000000000000 10000000000000000000"
      " droptail\n"
      "link W1 W5 1000000 0.005 30 30 red-ecn\n"
      "link W3 W5 1000000 0.005 30 30 drr\n"
      "link H1 W1 10000000 0.0001 inf inf\n"
      "link H2 W2 10000000 0.0001 inf inf\n"
      "link H3 W3 10000000 0.0001 inf inf\n"
      "link H4 W4 10000000 0.0001 inf inf\n"
      "link H5 W5 10000000 0.0001 inf inf\n"
      "link H6 W6 10000000 0.0001 inf inf\n"
      "monitor W2 W5\nmonitor W3 W5\nmonitor W5 W6\n"
      "flow H1 H6 kind=tahoe count=2 spread=1.0 ecn=1\n"
      "flow H4 H3 kind=newreno count=2 spread=1.0 ecn=1\n"
      "flow H2 H5 kind=cubic count=2 spread=1.0 ecn=1\n"
      "flow H5 H1 kind=vegas count=2 spread=1.0 ecn=1\n"
      "flow H6 H2 kind=bbr count=2 spread=1.0 ecn=1\n"
      "warmup 10\nduration 30\n");
  expect_invariant(parse_topology(in));
}

// The partitioner itself is deterministic and conservative: the plan for a
// given (topology, faults, shards) is a pure function, every cut link
// respects the minimum-delay floor, and degenerate requests collapse.
TEST(ShardPlanner, DeterministicAndConservative) {
  ParkingLotParams p;
  TopoSpec spec = parking_lot_spec(p);
  const ShardPlan plan1 = plan_shards(spec.topo, spec.faults, 4);
  const ShardPlan plan2 = plan_shards(spec.topo, spec.faults, 4);
  EXPECT_EQ(plan1.shard_of, plan2.shard_of);
  EXPECT_EQ(plan1.cut_links, plan2.cut_links);
  EXPECT_EQ(plan1.lookahead, plan2.lookahead);
  EXPECT_GT(plan1.shards, 1u);
  EXPECT_GE(plan1.lookahead.ns(), kMinCutDelayNs);
  for (std::size_t l : plan1.cut_links) {
    const LinkSpec& link = spec.topo.links()[l];
    EXPECT_NE(plan1.shard_of[link.a], plan1.shard_of[link.b]);
    EXPECT_GE(link.delay, plan1.lookahead);
  }
}

TEST(ShardPlanner, SingleShardHasNoCut) {
  ChaosParams p;
  TopoSpec spec = chaos_spec(p);
  const ShardPlan plan = plan_shards(spec.topo, spec.faults, 1);
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_TRUE(plan.cut_links.empty());
  for (std::size_t s : plan.shard_of) EXPECT_EQ(s, 0u);
}

}  // namespace
}  // namespace tcpdyn::core
