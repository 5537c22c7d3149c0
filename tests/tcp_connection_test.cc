// Connection wiring: endpoints registered on the right hosts, sender kinds,
// start times, and a closed-loop ACK-clocked exchange over a real link.
#include <gtest/gtest.h>

#include "core/dumbbell.h"
#include "core/experiment.h"
#include "tcp/connection.h"

namespace tcpdyn::tcp {
namespace {

class ConnectionTest : public ::testing::Test {
 protected:
  ConnectionTest() {
    handles_ = core::dumbbell_topology(core::DumbbellParams{}).compile(exp_);
  }
  core::Experiment exp_;
  core::CompiledTopology handles_;
};

TEST_F(ConnectionTest, TahoeKindAccessors) {
  ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = handles_.id("H1");
  cfg.dst_host = handles_.id("H2");
  cfg.kind = CcAlgorithm::kTahoe;
  Connection conn(exp_.network(), cfg);
  EXPECT_NE(conn.tahoe(), nullptr);
  EXPECT_EQ(conn.fixed(), nullptr);
  EXPECT_EQ(conn.config().id, 0u);
}

TEST_F(ConnectionTest, FixedKindAccessors) {
  ConnectionConfig cfg;
  cfg.id = 1;
  cfg.src_host = handles_.id("H2");
  cfg.dst_host = handles_.id("H1");
  cfg.kind = CcAlgorithm::kFixedWindow;
  cfg.fixed_window = 7;
  Connection conn(exp_.network(), cfg);
  EXPECT_EQ(conn.tahoe(), nullptr);
  ASSERT_NE(conn.fixed(), nullptr);
  EXPECT_EQ(conn.fixed()->window(), 7u);
}

TEST_F(ConnectionTest, ClosedLoopTransfer) {
  ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = handles_.id("H1");
  cfg.dst_host = handles_.id("H2");
  Connection conn(exp_.network(), cfg);
  exp_.sim().run_until(sim::Time::seconds(30.0));
  // 50 Kbps bottleneck moves 12.5 packets/s; after 30 s a healthy ACK-clocked
  // connection has delivered a few hundred packets in order.
  EXPECT_GT(conn.receiver().next_expected(), 200u);
  EXPECT_GT(conn.sender().counters().acks_received, 200u);
  // cwnd grew out of the initial slow start.
  EXPECT_GT(conn.tahoe()->cwnd(), 1.0);
}

TEST_F(ConnectionTest, StartTimeHonored) {
  ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = handles_.id("H1");
  cfg.dst_host = handles_.id("H2");
  cfg.start_time = sim::Time::seconds(5.0);
  Connection conn(exp_.network(), cfg);
  exp_.sim().run_until(sim::Time::seconds(4.9));
  EXPECT_EQ(conn.sender().counters().data_sent, 0u);
  exp_.sim().run_until(sim::Time::seconds(6.0));
  EXPECT_GT(conn.sender().counters().data_sent, 0u);
}

TEST_F(ConnectionTest, ReverseDirectionWorks) {
  ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = handles_.id("H2");  // data flows Host-2 -> Host-1
  cfg.dst_host = handles_.id("H1");
  Connection conn(exp_.network(), cfg);
  exp_.sim().run_until(sim::Time::seconds(10.0));
  EXPECT_GT(conn.receiver().next_expected(), 50u);
}

}  // namespace
}  // namespace tcpdyn::tcp
