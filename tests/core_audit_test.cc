// Packet-lifecycle conservation audit: the ledger closes on clean runs
// (bare network, Experiment, and the paper's Fig-2 / Fig-6 scenarios), and
// injected accounting faults — an uncounted drop, a double pop — are caught.
#include "core/audit.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/dumbbell.h"
#include "core/event_trace.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "net/network.h"

namespace tcpdyn::core {
namespace {

class CollectingSink : public net::PacketSink {
 public:
  void deliver(const net::Packet& pkt) override { packets.push_back(pkt); }
  std::vector<net::Packet> packets;
};

// A two-switch dumbbell driven by raw packet injection, with the Audit
// installed as the network observer — the harness for fault injection,
// where we need to hand the audit events the network never produced.
struct BareNetwork {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId h1, h2, s1, s2;
  CollectingSink sink;
  Audit audit;
  std::uint64_t next_uid = 0;

  explicit BareNetwork(net::QueueLimit bottleneck = net::QueueLimit::of(20)) {
    h1 = net.add_host("H1");
    h2 = net.add_host("H2");
    s1 = net.add_switch("S1");
    s2 = net.add_switch("S2");
    const auto inf = net::QueueLimit::infinite();
    net.connect(h1, s1, 10'000'000, sim::Time::microseconds(100), inf, inf);
    net.connect(s1, s2, 50'000, sim::Time::milliseconds(10), bottleneck,
                bottleneck);
    net.connect(s2, h2, 10'000'000, sim::Time::microseconds(100), inf, inf);
    net.compute_routes();
    net.port_between(s1, s2)->enable_busy_record();
    net.host(h2).register_endpoint(1, net::PacketKind::kData, &sink);
    net.set_observer(&audit);
  }

  net::Packet packet() {
    net::Packet p;
    p.uid = net::make_packet_uid(1, net::PacketKind::kData, next_uid++);
    p.conn = 1;
    p.kind = net::PacketKind::kData;
    p.size_bytes = 500;
    p.src = h1;
    p.dst = h2;
    return p;
  }
};

TEST(AuditCounters, PassesOnCleanRun) {
  BareNetwork b;
  for (int i = 0; i < 10; ++i) b.net.host(b.h1).send(b.packet());
  b.sim.run_until(sim::Time::seconds(5.0));
  const AuditReport report = audit_counters_check(b.net);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.totals.created, 10u);
  EXPECT_EQ(report.totals.delivered, 10u);
  EXPECT_EQ(report.totals.dropped, 0u);
  EXPECT_EQ(report.totals.in_flight, 0u);
}

TEST(AuditLedger, ClosesOnCleanRunWithDrops) {
  BareNetwork b(net::QueueLimit::of(3));  // tiny buffer forces drops
  for (int i = 0; i < 40; ++i) b.net.host(b.h1).send(b.packet());
  b.sim.run_until(sim::Time::seconds(10.0));
  const AuditReport report = b.audit.finalize(b.net, b.sim.now());
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.totals.created, 40u);
  EXPECT_GT(report.totals.dropped, 0u);
  EXPECT_EQ(report.totals.created,
            report.totals.delivered + report.totals.dropped +
                report.totals.in_queue + report.totals.in_flight);
  EXPECT_EQ(report.totals.bytes_created, 40u * 500u);
}

// Injected fault: a drop event the native counters never saw — the shape of
// the old push() bug, where a packet vanished without count_drop running.
TEST(AuditLedger, CatchesUncountedDrop) {
  BareNetwork b;
  for (int i = 0; i < 5; ++i) b.net.host(b.h1).send(b.packet());
  b.sim.run_until(sim::Time::seconds(5.0));
  net::Packet ghost = b.packet();
  b.audit.on_drop(b.sim.now(), *b.net.port_between(b.s1, b.s2), ghost,
                  net::DropCause::kQueueTail);
  const AuditReport report = b.audit.finalize(b.net, b.sim.now());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.violations.empty());
}

// Injected fault: the same packet popped from a port twice.
TEST(AuditLedger, CatchesDoublePop) {
  BareNetwork b;
  net::Packet p = b.packet();
  b.net.host(b.h1).send(p);
  b.sim.run_until(sim::Time::seconds(5.0));
  b.audit.on_dequeue(b.sim.now(), *b.net.port_between(b.s1, b.s2), p);
  const AuditReport report = b.audit.finalize(b.net, b.sim.now());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.violations.empty());
}

TEST(AuditLedger, CatchesDeliveryOfUnknownPacket) {
  BareNetwork b;
  b.net.host(b.h1).send(b.packet());
  b.sim.run_until(sim::Time::seconds(5.0));
  net::Packet forged = b.packet();
  b.audit.on_deliver(b.sim.now(), forged);  // never created, never sent
  const AuditReport report = b.audit.finalize(b.net, b.sim.now());
  EXPECT_FALSE(report.ok);
}

TEST(Audit, ParseMode) {
  EXPECT_EQ(parse_audit_mode("off"), AuditMode::kOff);
  EXPECT_EQ(parse_audit_mode("counters"), AuditMode::kCounters);
  EXPECT_EQ(parse_audit_mode("full"), AuditMode::kFull);
  EXPECT_FALSE(parse_audit_mode("verbose").has_value());
}

// ---------------------------------------------------- Experiment plumbing

tcp::ConnectionConfig forward_conn(const CompiledTopology& h,
                                   net::ConnId id = 0) {
  tcp::ConnectionConfig cfg;
  cfg.id = id;
  cfg.src_host = h.id("H1");
  cfg.dst_host = h.id("H2");
  return cfg;
}

TEST(ExperimentAudit, FullLedgerFillsResultTotals) {
  Experiment exp;
  exp.set_audit_mode(AuditMode::kFull);
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  // run() throws if the ledger does not close, so a normal return is itself
  // the conservation assertion; the totals land in the result.
  const ExperimentResult r =
      exp.run(sim::Time::seconds(2.0), sim::Time::seconds(20.0));
  EXPECT_GT(r.audit.created, 0u);
  EXPECT_GT(r.audit.delivered, 0u);
  EXPECT_EQ(r.audit.created, r.audit.delivered + r.audit.dropped +
                                 r.audit.in_queue + r.audit.in_flight);
}

TEST(ExperimentAudit, CountersModeFillsResultTotals) {
  Experiment exp;
  exp.set_audit_mode(AuditMode::kCounters);
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(2.0), sim::Time::seconds(20.0));
  EXPECT_GT(r.audit.created, 0u);
  EXPECT_GE(r.audit.created,
            r.audit.delivered + r.audit.dropped + r.audit.in_queue);
}

TEST(ExperimentAudit, OffLeavesTotalsZero) {
  Experiment exp;
  exp.set_audit_mode(AuditMode::kOff);
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(5.0));
  EXPECT_EQ(r.audit.created, 0u);
}

TEST(ExperimentAudit, TraceEmitsJsonlAndLedgerCloses) {
  Experiment exp;
  exp.set_audit_mode(AuditMode::kFull);
  std::ostringstream trace;
  exp.enable_trace(trace);
  DumbbellParams p;
  p.buffer_fwd = net::QueueLimit::of(3);  // force drop events into the trace
  p.buffer_rev = net::QueueLimit::of(3);
  const CompiledTopology h = dumbbell_topology(p).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(30.0));
  EXPECT_GT(r.audit.created, 0u);

  std::istringstream lines(trace.str());
  std::string line;
  std::size_t count = 0;
  bool saw_send = false, saw_enqueue = false, saw_dequeue = false,
       saw_deliver = false, saw_drop = false, saw_cwnd = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t\":"), std::string::npos);
    saw_send |= line.find("\"ev\":\"send\"") != std::string::npos;
    saw_enqueue |= line.find("\"ev\":\"enqueue\"") != std::string::npos;
    saw_dequeue |= line.find("\"ev\":\"dequeue\"") != std::string::npos;
    saw_deliver |= line.find("\"ev\":\"deliver\"") != std::string::npos;
    saw_drop |= line.find("\"ev\":\"drop\"") != std::string::npos;
    saw_cwnd |= line.find("\"ev\":\"cwnd-change\"") != std::string::npos;
    ++count;
  }
  EXPECT_GT(count, r.audit.created);  // several events per packet journey
  EXPECT_TRUE(saw_send && saw_enqueue && saw_dequeue && saw_deliver);
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_cwnd);
}

// ------------------------------------------------ the paper's scenarios

// Shortened Fig-2 / Fig-6 runs under the full ledger: the books must close
// with zero unaccounted packets. (run() throws on any violation.)
TEST(ScenarioAudit, Fig2LedgerCloses) {
  Scenario sc = fig2_one_way();
  sc.exp->set_audit_mode(AuditMode::kFull);
  const ExperimentResult r =
      sc.exp->run(sim::Time::seconds(10.0), sim::Time::seconds(60.0));
  EXPECT_GT(r.audit.created, 0u);
  EXPECT_GT(r.audit.delivered, 0u);
  EXPECT_EQ(r.audit.created, r.audit.delivered + r.audit.dropped +
                                 r.audit.in_queue + r.audit.in_flight);
}

TEST(ScenarioAudit, Fig6LedgerCloses) {
  Scenario sc = fig6_twoway();
  sc.exp->set_audit_mode(AuditMode::kFull);
  const ExperimentResult r =
      sc.exp->run(sim::Time::seconds(10.0), sim::Time::seconds(60.0));
  EXPECT_GT(r.audit.created, 0u);
  EXPECT_GT(r.audit.dropped, 0u);  // two-way traffic overflows the buffers
  EXPECT_EQ(r.audit.created, r.audit.delivered + r.audit.dropped +
                                 r.audit.in_queue + r.audit.in_flight);
}

}  // namespace
}  // namespace tcpdyn::core
