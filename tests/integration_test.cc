// Cross-module integration tests: conservation laws and paper-level
// invariants that must hold for any healthy end-to-end run.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/dumbbell.h"
#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(Integration, OneWaySingleConnSaturatesBottleneck) {
  Scenario sc = fig2_one_way(1, 0.01, 20);
  sc.warmup = sim::Time::seconds(10.0);
  sc.duration = sim::Time::seconds(60.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.util_fwd, 0.98);
  // Goodput == capacity: 12.5 packets per second.
  EXPECT_NEAR(static_cast<double>(s.result.delivered.at(0)) / 60.0, 12.5, 0.5);
  // Reverse direction carries only ACKs: 50 B per 500 B data = 10%.
  EXPECT_NEAR(s.util_rev, 0.10, 0.02);
}

TEST(Integration, AcksNeverDroppedOnDumbbell) {
  // Paper §4.2: an ACK entering the bottleneck queue always follows the
  // previous data packet by at least a data transmission time, so ACKs are
  // never dropped in the two-switch configuration — even under heavy
  // two-way congestion.
  for (double tau : {0.01, 1.0}) {
    Scenario sc = fig4_twoway(tau, 20);
    sc.warmup = sim::Time::seconds(0.0);
    sc.duration = sim::Time::seconds(200.0);
    const ScenarioSummary s = run_scenario(sc);
    for (const auto& port : s.result.ports) {
      EXPECT_EQ(port.counters.ack_drops, 0u) << port.name << " tau=" << tau;
    }
    EXPECT_GT(s.result.drops.size(), 0u);  // data drops did happen
  }
}

TEST(Integration, FixedWindowInfiniteBuffersLossFree) {
  Scenario sc = fig8_fixed_window(0.01, 30, 25);
  sc.warmup = sim::Time::seconds(0.0);
  sc.duration = sim::Time::seconds(60.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_TRUE(s.result.drops.empty());
  for (const auto& [id, c] : s.result.senders) {
    EXPECT_EQ(c.retransmits, 0u) << "conn " << id;
    EXPECT_EQ(c.dup_ack_losses, 0u);
    EXPECT_EQ(c.timeout_losses, 0u);
  }
}

TEST(Integration, SequenceDeliveryConservation) {
  // delivered (in-order at receiver) can never exceed distinct data sent,
  // and with retransmission every loss is eventually recovered: over a long
  // run delivered ~ sent - retransmits - in-flight.
  Scenario sc = fig4_twoway(0.01, 20);
  sc.warmup = sim::Time::seconds(0.0);
  sc.duration = sim::Time::seconds(300.0);
  const ScenarioSummary s = run_scenario(sc);
  for (const auto& [id, counters] : s.result.senders) {
    const std::uint64_t distinct_sent =
        counters.data_sent - counters.retransmits;
    const std::uint64_t delivered = s.result.delivered.at(id);
    EXPECT_LE(delivered, distinct_sent);
    // Everything but the last window made it.
    EXPECT_GT(delivered + 64, distinct_sent);
  }
}

TEST(Integration, WindowNeverExceedsLimit) {
  // Outstanding data <= window at every send (checked via a hook).
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = h.id("H1");
  cfg.dst_host = h.id("H2");
  auto& conn = exp.add_connection(cfg);
  bool violated = false;
  conn.sender().hooks().on_send = [&](sim::Time, const net::Packet& p) {
    // New data may only be sent while outstanding < window. (Retransmitted
    // data is exempt: after a loss collapses cwnd to 1, the previously-sent
    // flight legitimately exceeds the new window.)
    if (!p.retransmit &&
        conn.sender().outstanding() >= conn.sender().window()) {
      violated = true;
    }
  };
  exp.run(sim::Time::seconds(0.0), sim::Time::seconds(60.0));
  EXPECT_FALSE(violated);
}

TEST(Integration, UtilizationNeverExceedsOne) {
  Scenario sc = fig3_ten_connections(30);
  sc.warmup = sim::Time::seconds(10.0);
  sc.duration = sim::Time::seconds(60.0);
  const ScenarioSummary s = run_scenario(sc);
  for (const auto& port : s.result.ports) {
    EXPECT_LE(port.utilization, 1.0 + 1e-9) << port.name;
    EXPECT_GE(port.utilization, 0.0);
  }
}

TEST(Integration, QueueNeverExceedsBuffer) {
  Scenario sc = fig4_twoway(0.01, 20);
  sc.warmup = sim::Time::seconds(0.0);
  sc.duration = sim::Time::seconds(120.0);
  const ScenarioSummary s = run_scenario(sc);
  for (const auto& port : s.result.ports) {
    EXPECT_LE(port.queue.max_in(0.0, 1e9), 20.0) << port.name;
    EXPECT_EQ(port.counters.max_length, 20u);  // buffer is actually reached
  }
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scenario sc = fig4_twoway(0.01, 20);
    sc.warmup = sim::Time::seconds(10.0);
    sc.duration = sim::Time::seconds(100.0);
    return run_scenario(sc);
  };
  const ScenarioSummary a = run_once();
  const ScenarioSummary b = run_once();
  EXPECT_DOUBLE_EQ(a.util_fwd, b.util_fwd);
  EXPECT_DOUBLE_EQ(a.util_rev, b.util_rev);
  EXPECT_EQ(a.result.drops.size(), b.result.drops.size());
  EXPECT_EQ(a.result.delivered.at(0), b.result.delivered.at(0));
  EXPECT_EQ(a.result.delivered.at(1), b.result.delivered.at(1));
  ASSERT_EQ(a.result.ports[0].queue.size(), b.result.ports[0].queue.size());
}

TEST(Integration, TwoWayDeliversBothDirections) {
  Scenario sc = fig6_twoway(1.0, 20);
  sc.warmup = sim::Time::seconds(50.0);
  sc.duration = sim::Time::seconds(200.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.result.delivered.at(0), 300u);
  EXPECT_GT(s.result.delivered.at(1), 300u);
}

TEST(Integration, ReceiverNextExpectedMonotone) {
  Experiment exp;
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);
  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = h.id("H1");
  cfg.dst_host = h.id("H2");
  auto& conn = exp.add_connection(cfg);
  std::uint32_t last = 0;
  bool monotone = true;
  exp.network().host(h.id("H2")).on_deliver = [&](sim::Time,
                                               const net::Packet& p) {
    if (net::is_data(p)) {
      const std::uint32_t ne = conn.receiver().next_expected();
      if (ne < last) monotone = false;
      last = ne;
    }
  };
  exp.run(sim::Time::seconds(0.0), sim::Time::seconds(60.0));
  EXPECT_TRUE(monotone);
  EXPECT_GT(last, 0u);
}

}  // namespace
}  // namespace tcpdyn::core
