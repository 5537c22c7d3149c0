// Fast versions of the headline paper claims, one test per figure, so the
// reproduction is guarded by ctest as well as by the bench harnesses (which
// run the full-length configurations). Shorter windows, looser thresholds.
#include <gtest/gtest.h>

#include "core/report.h"
#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(Fig2, OneWayInPhaseAndClocked) {
  Scenario sc = fig2_one_way(3, 1.0, 20);
  sc.warmup = sim::Time::seconds(100.0);
  sc.duration = sim::Time::seconds(300.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.util_fwd, 0.8);
  EXPECT_LT(s.util_fwd, 0.98);
  EXPECT_EQ(s.cwnd_sync.mode, SyncMode::kInPhase);
  EXPECT_NEAR(s.epochs.mean_drops_per_epoch, 3.0, 0.7);
  EXPECT_GT(s.epochs.multi_loser_fraction, 0.8);
  // ACKs are a reliable clock in one-way traffic: no compressed gaps.
  for (const auto& [conn, a] : s.ack) {
    EXPECT_LT(a.compressed_fraction, 0.01);
  }
}

TEST(Fig3, TenConnectionsFluctuateOutOfPhase) {
  Scenario sc = fig3_ten_connections(30);
  sc.warmup = sim::Time::seconds(60.0);
  sc.duration = sim::Time::seconds(200.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_EQ(s.queue_sync.mode, SyncMode::kOutOfPhase);
  EXPECT_GE(s.fluct_fwd.max_burst_rise, 4.0);
  EXPECT_GT(s.epochs.data_drop_fraction, 0.99);
  EXPECT_GT(s.util_fwd, 0.8);
}

TEST(Fig4, TwoWaySmallPipeOutOfPhaseAlternation) {
  Scenario sc = fig4_twoway(0.01, 20);
  sc.warmup = sim::Time::seconds(80.0);
  sc.duration = sim::Time::seconds(250.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_EQ(s.cwnd_sync.mode, SyncMode::kOutOfPhase);
  EXPECT_GT(s.epochs.single_loser_fraction, 0.7);
  EXPECT_GT(s.epochs.loser_alternation_fraction, 0.6);
  EXPECT_NEAR(s.epochs.mean_drops_per_epoch, 2.0, 0.7);
  EXPECT_LT(s.util_fwd, 0.92);  // below optimal
}

TEST(Fig6, TwoWayLargePipeInPhase) {
  Scenario sc = fig6_twoway(1.0, 20);
  sc.warmup = sim::Time::seconds(100.0);
  sc.duration = sim::Time::seconds(400.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_EQ(s.cwnd_sync.mode, SyncMode::kInPhase);
  EXPECT_EQ(s.queue_sync.mode, SyncMode::kInPhase);
  EXPECT_GT(s.epochs.multi_loser_fraction, 0.7);
  EXPECT_LT(s.util_fwd, 0.85);
}

TEST(Fig8, FixedWindowMaximaAndIdle) {
  Scenario sc = fig8_fixed_window(0.01, 30, 25);
  const ScenarioSummary s = run_scenario(sc);
  const double q1 = s.result.ports[0].queue.max_in(s.result.t_start,
                                                   s.result.t_end);
  const double q2 = s.result.ports[1].queue.max_in(s.result.t_start,
                                                   s.result.t_end);
  EXPECT_NEAR(q1, 55.0, 3.0);
  EXPECT_NEAR(q2, 23.0, 3.0);
  EXPECT_GT(s.util_fwd, 0.99);
  EXPECT_LT(s.util_rev, 0.95);
}

TEST(Fig9, FixedWindowEqualMaxima) {
  Scenario sc = fig8_fixed_window(1.0, 30, 25);
  const ScenarioSummary s = run_scenario(sc);
  const double q1 = s.result.ports[0].queue.max_in(s.result.t_start,
                                                   s.result.t_end);
  const double q2 = s.result.ports[1].queue.max_in(s.result.t_start,
                                                   s.result.t_end);
  EXPECT_NEAR(q1, q2, 2.0);
  EXPECT_LT(s.util_fwd, 0.95);
  EXPECT_LT(s.util_rev, 0.85);
}

TEST(Pacing, RemovesCompression) {
  Scenario nonpaced = fig4_twoway(0.01, 20);
  nonpaced.warmup = sim::Time::seconds(50.0);
  nonpaced.duration = sim::Time::seconds(150.0);
  Scenario paced = paced_twoway(0.01, 20);
  paced.warmup = sim::Time::seconds(50.0);
  paced.duration = sim::Time::seconds(150.0);
  const ScenarioSummary a = run_scenario(nonpaced);
  const ScenarioSummary b = run_scenario(paced);
  EXPECT_LT(b.ack.at(0).compressed_fraction,
            0.5 * a.ack.at(0).compressed_fraction);
}

TEST(Report, SummaryAndChartRender) {
  Scenario sc = fig4_twoway(0.01, 20);
  sc.warmup = sim::Time::seconds(10.0);
  sc.duration = sim::Time::seconds(40.0);
  const ScenarioSummary s = run_scenario(sc);
  std::ostringstream os;
  print_summary(os, "test", s);
  EXPECT_NE(os.str().find("utilization fwd"), std::string::npos);
  std::ostringstream chart;
  print_queue_chart(chart, s.result.ports[0].queue, s.result.t_start,
                    s.result.t_end, 40, 5, "q");
  EXPECT_NE(chart.str().find('#'), std::string::npos);
  std::ostringstream claims;
  const int failed = print_claims(
      claims, "test",
      {{"a", "x", "y", true}, {"b", "x", "y", false}});
  EXPECT_EQ(failed, 1);
  EXPECT_NE(claims.str().find("NO"), std::string::npos);
}

TEST(Scenarios, NamesAndMetadata) {
  EXPECT_EQ(fig2_one_way().name, "fig2-one-way");
  EXPECT_EQ(fig3_ten_connections().name, "fig3-ten-connections");
  EXPECT_EQ(fig4_twoway().name, "fig4-5-twoway-small-pipe");
  EXPECT_EQ(fig6_twoway().name, "fig6-7-twoway-large-pipe");
  EXPECT_EQ(fig8_fixed_window(0.01).name, "fig8-fixed-window");
  EXPECT_EQ(fig8_fixed_window(1.0).name, "fig9-fixed-window");
  EXPECT_EQ(Scenario(fig2_one_way()).exp->connection_count(), 3u);
  EXPECT_EQ(Scenario(fig8_fixed_window()).exp->connection_count(), 2u);
}

}  // namespace
}  // namespace tcpdyn::core
