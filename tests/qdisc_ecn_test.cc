// ECN across the stack and the qdisc zoo under the full ledger.
//
//  * EcnHook      — on_ecn_echo arithmetic of every controller, at the hook
//                   level (no transport): reductions match the documented
//                   response and fire a kEcnEcho cwnd-change event.
//  * EcnTransport — end-to-end through a RED-ECN bottleneck: AQM marks CE,
//                   the receiver echoes ECE, the sender's once-per-RTT gate
//                   turns echoes into ecn_reductions, and the conservation
//                   ledger still closes (marks sit outside the drop law).
//  * QdiscDoubleRun — the same mixed-controller chain run twice per
//                   discipline produces identical counters, deliveries, and
//                   audit totals: every discipline is a pure function of the
//                   per-port seed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "net/queue.h"
#include "tcp/congestion_control.h"
#include "tcp/connection.h"

namespace tcpdyn::core {
namespace {

// ------------------------------------------------------------ hook level

struct EventLog {
  std::vector<tcp::CcEvent> events;
  std::vector<double> cwnds;
};

std::unique_ptr<tcp::CongestionControl> make_cc(tcp::CcAlgorithm algo,
                                                EventLog* log) {
  tcp::CcConfig cfg;
  cfg.kind = algo;
  cfg.tahoe.initial_cwnd = 16.0;
  cfg.cubic.initial_cwnd = 16;
  cfg.vegas.initial_cwnd = 16.0;
  cfg.bbr.initial_cwnd = 16;
  auto cc = tcp::make_congestion_control(cfg);
  cc->bind(nullptr, tcp::CcEnv{});
  if (log != nullptr) {
    cc->on_cwnd_change = [log](sim::Time, double w, tcp::CcEvent ev) {
      log->events.push_back(ev);
      log->cwnds.push_back(w);
    };
  }
  return cc;
}

TEST(EcnHook, TahoeFamilyHalvesWithoutCollapse) {
  for (const auto algo : {tcp::CcAlgorithm::kTahoe, tcp::CcAlgorithm::kReno,
                          tcp::CcAlgorithm::kNewReno}) {
    EventLog log;
    auto cc = make_cc(algo, &log);
    ASSERT_DOUBLE_EQ(cc->cwnd(), 16.0) << cc->name();
    cc->on_ecn_echo(sim::Time::seconds(1.0));
    EXPECT_DOUBLE_EQ(cc->cwnd(), 8.0) << cc->name();
    cc->on_ecn_echo(sim::Time::seconds(2.0));
    EXPECT_DOUBLE_EQ(cc->cwnd(), 4.0) << cc->name();
    cc->on_ecn_echo(sim::Time::seconds(3.0));
    cc->on_ecn_echo(sim::Time::seconds(4.0));
    // Halving floors at two packets — a congestion signal without loss
    // never collapses the window to one.
    EXPECT_DOUBLE_EQ(cc->cwnd(), 2.0) << cc->name();
    ASSERT_EQ(log.events.size(), 4u) << cc->name();
    for (const auto ev : log.events) {
      EXPECT_EQ(ev, tcp::CcEvent::kEcnEcho) << cc->name();
    }
  }
}

TEST(EcnHook, CubicAppliesBetaReduction) {
  EventLog log;
  auto cc = make_cc(tcp::CcAlgorithm::kCubic, &log);
  cc->on_ecn_echo(sim::Time::seconds(1.0));
  // beta = 717/1024: 16 * 717 / 1024 = 11 (integer floor).
  EXPECT_DOUBLE_EQ(cc->cwnd(), 11.0);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0], tcp::CcEvent::kEcnEcho);
}

TEST(EcnHook, VegasTrimsToThreeQuarters) {
  EventLog log;
  auto cc = make_cc(tcp::CcAlgorithm::kVegas, &log);
  cc->on_ecn_echo(sim::Time::seconds(1.0));
  EXPECT_DOUBLE_EQ(cc->cwnd(), 12.0);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0], tcp::CcEvent::kEcnEcho);
}

TEST(EcnHook, BbrTrimsAQuarterDownToFloor) {
  EventLog log;
  auto cc = make_cc(tcp::CcAlgorithm::kBbr, &log);
  cc->on_ecn_echo(sim::Time::seconds(1.0));
  EXPECT_DOUBLE_EQ(cc->cwnd(), 12.0);  // 16 - 16/4
  for (int i = 0; i < 10; ++i) cc->on_ecn_echo(sim::Time::seconds(2.0 + i));
  // Repeated echoes bottom out at min_cwnd, never below.
  EXPECT_DOUBLE_EQ(cc->cwnd(), 4.0);
  EXPECT_EQ(log.events.size(), 11u);
}

TEST(EcnHook, FixedWindowIgnoresTheSignal) {
  EventLog log;
  auto cc = make_cc(tcp::CcAlgorithm::kFixedWindow, &log);
  const std::uint32_t before = cc->usable_window();
  cc->on_ecn_echo(sim::Time::seconds(1.0));
  EXPECT_EQ(cc->usable_window(), before);
  EXPECT_TRUE(log.events.empty());
}

// ------------------------------------------------------- transport level

// Two hosts across a RED bottleneck: A - S1 ===trunk=== S2 - B. Fast access
// links, slow trunk, thresholds low enough that slow start crosses them
// within the first seconds.
struct TransportRun {
  net::QueueCounters trunk;
  tcp::SenderCounters sender;
  std::uint64_t delivered = 0;
  AuditTotals audit;
};

TransportRun run_transport(bool ecn_qdisc, bool ecn_conn) {
  Experiment exp;
  auto& net = exp.network();
  const net::NodeId s1 = net.add_switch("S1");
  const net::NodeId s2 = net.add_switch("S2");
  const net::NodeId a = net.add_host("A");
  const net::NodeId b = net.add_host("B");
  net.connect(a, s1, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net.connect(b, s2, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net::QdiscConfig qdisc;
  qdisc.kind = net::QdiscKind::kRed;
  qdisc.limit = net::QueueLimit::of(20);
  qdisc.red.min_th = 3;
  qdisc.red.max_th = 10;
  qdisc.red.ecn = ecn_qdisc;
  net.connect(s1, s2, 100'000, sim::Time::milliseconds(10),
              net::QueueLimit::of(20), net::QueueLimit::of(20), qdisc);
  net.compute_routes();
  exp.monitor(s1, s2);
  exp.set_audit_mode(AuditMode::kFull);  // run() throws on any violation

  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = a;
  cfg.dst_host = b;
  cfg.kind = tcp::CcAlgorithm::kTahoe;
  cfg.ecn = ecn_conn;
  exp.add_connection(cfg);

  const ExperimentResult r =
      exp.run(sim::Time::seconds(10.0), sim::Time::seconds(60.0));
  TransportRun out;
  out.trunk = r.ports.at(0).counters;
  out.sender = r.senders.at(0);
  out.delivered = r.delivered.at(0);
  out.audit = r.audit;
  return out;
}

TEST(EcnTransport, MarksBecomeEchoesBecomeReductions) {
  const TransportRun r = run_transport(/*ecn_qdisc=*/true, /*ecn_conn=*/true);
  EXPECT_GT(r.trunk.marks, 0u);
  EXPECT_GT(r.trunk.bytes_marked, 0u);
  EXPECT_GT(r.sender.ecn_reductions, 0u);
  EXPECT_GT(r.delivered, 0u);
  // No 1:1 law relates reductions to marks: one mark arms ECE until the
  // sender's CWR reaches the receiver, and a dropped CWR carrier means the
  // same mark episode triggers another once-per-RTT reduction. The audit
  // does reconcile marks with the native queue counters exactly.
  EXPECT_EQ(r.audit.marks, r.trunk.marks);
  EXPECT_EQ(r.audit.bytes_marked, r.trunk.bytes_marked);
}

TEST(EcnTransport, EcnQueueStillDropsNonEctTraffic) {
  // RED in ECN mode facing a non-ECN connection: the lottery falls back to
  // early drops, nothing is marked, and the controller never hears ECE.
  const TransportRun r = run_transport(/*ecn_qdisc=*/true, /*ecn_conn=*/false);
  EXPECT_EQ(r.trunk.marks, 0u);
  EXPECT_EQ(r.sender.ecn_reductions, 0u);
  EXPECT_GT(r.trunk.drops, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(EcnTransport, PlainRedNeverMarksEctTraffic) {
  // The discipline decides marking, not the endpoints: RED without ECN
  // drops even ECT packets.
  const TransportRun r = run_transport(/*ecn_qdisc=*/false, /*ecn_conn=*/true);
  EXPECT_EQ(r.trunk.marks, 0u);
  EXPECT_EQ(r.sender.ecn_reductions, 0u);
  EXPECT_GT(r.trunk.drops, 0u);
}

// --------------------------------------------------- double-run identity

std::string counters_digest(const net::QueueCounters& c) {
  std::ostringstream os;
  os << "arr=" << c.arrivals << " dep=" << c.departures << " drop=" << c.drops
     << " ddrop=" << c.data_drops << " adrop=" << c.ack_drops
     << " mark=" << c.marks << " ba=" << c.bytes_arrived
     << " bd=" << c.bytes_departed << " bx=" << c.bytes_dropped
     << " bm=" << c.bytes_marked << " max=" << c.max_length;
  return os.str();
}

std::string run_chain_digest(const net::QdiscConfig& qdisc) {
  Experiment exp;
  auto& net = exp.network();
  const net::NodeId s1 = net.add_switch("S1");
  const net::NodeId s2 = net.add_switch("S2");
  const net::NodeId s3 = net.add_switch("S3");
  const net::NodeId a = net.add_host("A");
  const net::NodeId b = net.add_host("B");
  const net::NodeId c = net.add_host("C");
  net.connect(a, s1, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net.connect(b, s3, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net.connect(c, s2, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net.connect(s1, s2, 100'000, sim::Time::milliseconds(5),
              net::QueueLimit::of(15), net::QueueLimit::of(15), qdisc);
  net.connect(s2, s3, 100'000, sim::Time::milliseconds(5),
              net::QueueLimit::of(15), net::QueueLimit::of(15), qdisc);
  net.compute_routes();
  exp.monitor(s1, s2);
  exp.monitor(s2, s1);
  exp.monitor(s2, s3);
  exp.monitor(s3, s2);
  exp.set_audit_mode(AuditMode::kFull);

  // Mixed controllers, two-way traffic, ECT where the conn supports it.
  const tcp::CcAlgorithm kinds[] = {tcp::CcAlgorithm::kNewReno,
                                    tcp::CcAlgorithm::kCubic,
                                    tcp::CcAlgorithm::kBbr};
  const net::NodeId srcs[] = {a, b, c};
  const net::NodeId dsts[] = {b, a, b};
  for (net::ConnId i = 0; i < 3; ++i) {
    tcp::ConnectionConfig cfg;
    cfg.id = i;
    cfg.src_host = srcs[i];
    cfg.dst_host = dsts[i];
    cfg.kind = kinds[i];
    cfg.ecn = (i != 1);
    cfg.delayed_ack = (i == 2);
    exp.add_connection(cfg);
  }
  const ExperimentResult r =
      exp.run(sim::Time::seconds(10.0), sim::Time::seconds(60.0));

  std::ostringstream os;
  for (const auto& port : r.ports) {
    os << port.name << " " << counters_digest(port.counters) << "\n";
  }
  for (const auto& [id, delivered] : r.delivered) {
    os << "c" << id << " dlv=" << delivered
       << " ecn=" << r.senders.at(id).ecn_reductions << "\n";
  }
  os << "created=" << r.audit.created << " delivered=" << r.audit.delivered
     << " dropped=" << r.audit.dropped << " marks=" << r.audit.marks
     << " q=" << r.audit.drops_queue << "\n";
  return os.str();
}

TEST(QdiscDoubleRun, EveryDisciplineIsByteIdenticalUnderFullLedger) {
  std::vector<net::QdiscConfig> zoo(5);
  zoo[0].kind = net::QdiscKind::kDropTail;
  zoo[1].kind = net::QdiscKind::kRandomDrop;
  zoo[2].kind = net::QdiscKind::kRed;
  zoo[2].red.min_th = 3;
  zoo[2].red.max_th = 10;
  zoo[3] = zoo[2];
  zoo[3].red.ecn = true;
  zoo[4].kind = net::QdiscKind::kDrr;
  zoo[4].drr.quantum_bytes = 500;
  for (const auto& qdisc : zoo) {
    const std::string first = run_chain_digest(qdisc);
    const std::string second = run_chain_digest(qdisc);
    EXPECT_EQ(first, second) << "discipline " << net::to_string(qdisc.kind);
    EXPECT_FALSE(first.empty());
  }
}

}  // namespace
}  // namespace tcpdyn::core
