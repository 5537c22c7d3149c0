// Experiment orchestration: monitoring, result assembly, error conditions,
// and the dumbbell and chain topologies and traffic.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/chain.h"
#include "core/dumbbell.h"

namespace tcpdyn::core {
namespace {

tcp::ConnectionConfig forward_conn(const CompiledTopology& h,
                                   net::ConnId id = 0) {
  tcp::ConnectionConfig cfg;
  cfg.id = id;
  cfg.src_host = h.id("H1");
  cfg.dst_host = h.id("H2");
  return cfg;
}

TEST(Experiment, MonitorUnknownLinkThrows) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  EXPECT_THROW(exp.monitor(h.id("H1"), h.id("H2")), std::logic_error);
}

TEST(Experiment, RunTwiceThrows) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  exp.run(sim::Time::seconds(1.0), sim::Time::seconds(1.0));
  EXPECT_THROW(exp.run(sim::Time::seconds(1.0), sim::Time::seconds(1.0)),
               std::logic_error);
  EXPECT_THROW(exp.add_connection(forward_conn(h, 1)), std::logic_error);
  EXPECT_THROW(exp.monitor(h.id("S1"), h.id("S2")), std::logic_error);
}

TEST(Experiment, ResultPortsInMonitorOrder) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(5.0));
  ASSERT_EQ(r.ports.size(), 2u);
  EXPECT_EQ(r.ports[0].name, "S1->S2");
  EXPECT_EQ(r.ports[1].name, "S2->S1");
  EXPECT_DOUBLE_EQ(r.t_start, 1.0);
  EXPECT_DOUBLE_EQ(r.t_end, 6.0);
  EXPECT_DOUBLE_EQ(r.data_tx_time, 0.08);
}

TEST(Experiment, DeliveredCountsMeasurementWindowOnly) {
  // A one-way connection at ~12.5 pkt/s: delivered in a 10 s window must be
  // ~125, not the total since t=0.
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(20.0), sim::Time::seconds(10.0));
  EXPECT_GT(r.delivered.at(0), 100u);
  EXPECT_LT(r.delivered.at(0), 150u);
}

TEST(Experiment, CwndTraceRecordedForTahoe) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(10.0));
  ASSERT_TRUE(r.cwnd.contains(0));
  EXPECT_GT(r.cwnd.at(0).size(), 10u);
  // cwnd starts at 1 and grows.
  EXPECT_DOUBLE_EQ(r.cwnd.at(0).points().front().value, 1.0);
  EXPECT_GT(r.cwnd.at(0).points().back().value, 1.0);
}

TEST(Experiment, NoCwndTraceForFixedWindow) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  tcp::ConnectionConfig cfg = forward_conn(h);
  cfg.kind = tcp::CcAlgorithm::kFixedWindow;
  cfg.fixed_window = 5;
  exp.add_connection(cfg);
  const ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(5.0));
  EXPECT_FALSE(r.cwnd.contains(0));
}

TEST(Experiment, AckArrivalsRecordedAtSource) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(10.0));
  ASSERT_TRUE(r.ack_arrivals.contains(0));
  EXPECT_GT(r.ack_arrivals.at(0).size(), 50u);
  // Arrival times are sorted.
  const auto& times = r.ack_arrivals.at(0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
}

TEST(Experiment, DropEventsCarryMetadata) {
  Experiment exp;
  DumbbellParams p;
  p.buffer_fwd = net::QueueLimit::of(3);  // tiny buffer forces drops
  p.buffer_rev = net::QueueLimit::of(3);
  const CompiledTopology h = dumbbell_topology(p).compile(exp);
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(30.0));
  ASSERT_FALSE(r.drops.empty());
  for (const DropEvent& d : r.drops) {
    EXPECT_EQ(d.conn, 0u);
    EXPECT_TRUE(d.data);
    EXPECT_EQ(d.port, "S1->S2");
    EXPECT_GE(d.time, 0.0);
  }
}

TEST(Dumbbell, PipeSizeMatchesPaper) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(0.01);
  EXPECT_NEAR(p.pipe_size(), 0.125, 1e-12);
  p.tau = sim::Time::seconds(1.0);
  EXPECT_NEAR(p.pipe_size(), 12.5, 1e-12);
}

TEST(Dumbbell, ConnectionsPlacedByDirection) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  TrafficMatrix traffic;
  traffic.add(dumbbell_flow(true));
  traffic.add(dumbbell_flow(false));
  traffic.instantiate(exp, h);
  ASSERT_EQ(exp.connection_count(), 2u);
  EXPECT_EQ(exp.connection(0).config().src_host, h.id("H1"));
  EXPECT_EQ(exp.connection(1).config().src_host, h.id("H2"));
}

TEST(Chain, BuildsAndMonitorsAllTrunks) {
  Experiment exp;
  ChainParams p;
  p.switches = 4;
  const Topology t = chain_topology(p);
  EXPECT_EQ(t.node_count(), 8u);
  EXPECT_EQ(t.host_count(), 4u);
  chain_traffic(p, 6, 1).instantiate(exp, t.compile(exp));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(10.0));
  EXPECT_EQ(r.ports.size(), 6u);  // 3 trunks x 2 directions
  // Every connection delivered something.
  for (const auto& [id, delivered] : r.delivered) {
    EXPECT_GT(delivered, 0u) << "conn " << id;
  }
}

TEST(Chain, PathLengthsCycle) {
  const TrafficMatrix traffic = chain_traffic(ChainParams{}, 9, 3);
  ASSERT_EQ(traffic.specs().size(), 9u);
  // Flow i has path length 1 + i % 3 (in inter-switch hops): host Hk sits on
  // switch Sk, so the endpoints' numbers differ accordingly.
  for (std::size_t i = 0; i < 9; ++i) {
    const ConnSpec& c = traffic.specs()[i];
    const int src = std::stoi(c.src.substr(1));
    const int dst = std::stoi(c.dst.substr(1));
    EXPECT_EQ(static_cast<std::size_t>(std::abs(src - dst)), 1 + i % 3)
        << "flow " << i;
  }
}

}  // namespace
}  // namespace tcpdyn::core
