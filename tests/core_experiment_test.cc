// Experiment orchestration: monitoring, result assembly, error conditions,
// and the dumbbell/chain builders.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/chain.h"
#include "core/dumbbell.h"

namespace tcpdyn::core {
namespace {

tcp::ConnectionConfig forward_conn(const DumbbellHandles& h,
                                   net::ConnId id = 0) {
  tcp::ConnectionConfig cfg;
  cfg.id = id;
  cfg.src_host = h.host1;
  cfg.dst_host = h.host2;
  return cfg;
}

TEST(Experiment, MonitorUnknownLinkThrows) {
  Experiment exp;
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
  EXPECT_THROW(exp.monitor(h.host1, h.host2), std::logic_error);
}

TEST(Experiment, RunTwiceThrows) {
  Experiment exp;
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
  exp.add_connection(forward_conn(h));
  exp.run(sim::Time::seconds(1.0), sim::Time::seconds(1.0));
  EXPECT_THROW(exp.run(sim::Time::seconds(1.0), sim::Time::seconds(1.0)),
               std::logic_error);
  EXPECT_THROW(exp.add_connection(forward_conn(h, 1)), std::logic_error);
  EXPECT_THROW(exp.monitor(h.switch1, h.switch2), std::logic_error);
}

TEST(Experiment, ResultPortsInMonitorOrder) {
  Experiment exp;
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
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
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
  exp.add_connection(forward_conn(h));
  const ExperimentResult r =
      exp.run(sim::Time::seconds(20.0), sim::Time::seconds(10.0));
  EXPECT_GT(r.delivered.at(0), 100u);
  EXPECT_LT(r.delivered.at(0), 150u);
}

TEST(Experiment, CwndTraceRecordedForTahoe) {
  Experiment exp;
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
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
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
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
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
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
  const DumbbellHandles h = build_dumbbell(exp, p);
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
  const DumbbellHandles h = build_dumbbell(exp, DumbbellParams{});
  std::vector<ConnSpec> specs(2);
  specs[0].forward = true;
  specs[1].forward = false;
  add_dumbbell_connections(exp, h, specs);
  ASSERT_EQ(exp.connection_count(), 2u);
  EXPECT_EQ(exp.connection(0).config().src_host, h.host1);
  EXPECT_EQ(exp.connection(1).config().src_host, h.host2);
}

TEST(Chain, BuildsAndMonitorsAllTrunks) {
  Experiment exp;
  ChainParams p;
  p.switches = 4;
  const ChainHandles h = build_chain(exp, p);
  EXPECT_EQ(h.hosts.size(), 4u);
  EXPECT_EQ(h.switches.size(), 4u);
  add_chain_connections(exp, h, 6, 1);
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(10.0));
  EXPECT_EQ(r.ports.size(), 6u);  // 3 trunks x 2 directions
  // Every connection delivered something.
  for (const auto& [id, delivered] : r.delivered) {
    EXPECT_GT(delivered, 0u) << "conn " << id;
  }
}

TEST(Chain, PathLengthsCycle) {
  Experiment exp;
  ChainParams p;
  const ChainHandles h = build_chain(exp, p);
  add_chain_connections(exp, h, 9, 3);
  // Connection i has path length 1 + i % 3 (in inter-switch hops): check the
  // endpoints' host indices differ accordingly.
  for (std::size_t i = 0; i < 9; ++i) {
    const auto& cfg = exp.connection(i).config();
    std::size_t src = 0, dst = 0;
    for (std::size_t k = 0; k < h.hosts.size(); ++k) {
      if (h.hosts[k] == cfg.src_host) src = k;
      if (h.hosts[k] == cfg.dst_host) dst = k;
    }
    const std::size_t hops = src > dst ? src - dst : dst - src;
    EXPECT_EQ(hops, 1 + i % 3) << "conn " << i;
  }
}

}  // namespace
}  // namespace tcpdyn::core
