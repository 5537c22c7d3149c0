// Datacenter incast and open-loop session churn: the N-to-1 scenario must
// close the conservation ledger, Poisson arrivals must be a pure function of
// the spec's seed (double-run identical, cross-seed different, jobs-count
// invariant under the sweep runner), and the scale knobs — streaming
// monitors, per-flow traces off — must change only what they claim to
// change, never the simulated packet sequence. The churn run's digest is
// pinned in timer_equivalence_test.cc.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/scenarios.h"
#include "core/sweep.h"
#include "core/topo_scenarios.h"
#include "core/topology.h"

namespace tcpdyn::core {
namespace {

IncastParams small_churn_params() {
  IncastParams p;
  p.senders = 8;
  p.flows_per_sender = 16;  // 128 sessions
  p.arrival_rate = 4.0;     // aggregate 32 sessions/sec
  p.session_sec = 0.5;
  p.warmup_sec = 1.0;
  p.duration_sec = 8.0;
  return p;
}

TEST(Incast, ClosedPopulationClosesFullLedger) {
  IncastParams p;
  p.senders = 16;
  p.flows_per_sender = 2;
  p.start_spread_sec = 2.0;
  p.warmup_sec = 2.0;
  p.duration_sec = 10.0;
  Scenario sc = make_topo_scenario(incast_spec(p));
  ASSERT_EQ(sc.exp->connection_count(), 32u);
  sc.exp->set_audit_mode(AuditMode::kFull);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_EQ(s.flows.flows, 32u);
  EXPECT_GT(s.flows.goodput_mean, 0.0);
  const AuditTotals& a = s.result.audit;
  EXPECT_GT(a.created, 0u);
  EXPECT_EQ(a.created, a.delivered + a.dropped + a.in_queue + a.in_flight);
  EXPECT_GT(s.util_fwd, 0.5);  // the fan-in link should be busy
}

TEST(IncastChurn, PoissonArrivalsAreOrderedAndSessionsBounded) {
  const IncastParams p = small_churn_params();
  const TopoSpec spec = incast_spec(p);
  Experiment exp;
  const CompiledTopology topo = spec.topo.compile(exp);
  ASSERT_EQ(spec.traffic.instantiate(exp, topo), 128u);
  // Every session stops exactly session_sec after it starts, and within a
  // spec (= one sender, flows contiguous in add order) the Poisson arrival
  // times are strictly increasing.
  for (std::size_t i = 0; i < exp.connection_count(); ++i) {
    const tcp::ConnectionConfig& cfg = exp.connection(i).config();
    EXPECT_GT(cfg.start_time, sim::Time::zero());
    EXPECT_EQ(cfg.stop_time - cfg.start_time, sim::Time::seconds(0.5));
  }
  for (std::size_t k = 0; k < p.senders; ++k) {
    for (std::size_t j = 1; j < p.flows_per_sender; ++j) {
      const std::size_t i = k * p.flows_per_sender + j;
      EXPECT_LT(exp.connection(i - 1).config().start_time,
                exp.connection(i).config().start_time);
    }
  }
}

TEST(IncastChurn, DoubleRunIsIdenticalAndSeedMatters) {
  const IncastParams p = small_churn_params();
  Scenario a = make_topo_scenario(incast_spec(p));
  Scenario b = make_topo_scenario(incast_spec(p));
  const ScenarioSummary ra = run_scenario(a);
  const ScenarioSummary rb = run_scenario(b);
  EXPECT_EQ(ra.result.delivered, rb.result.delivered);
  EXPECT_EQ(ra.result.drops.size(), rb.result.drops.size());
  EXPECT_EQ(ra.util_fwd, rb.util_fwd);  // exact: same event sequence

  IncastParams q = small_churn_params();
  q.seed = p.seed + 1;
  Scenario c = make_topo_scenario(incast_spec(q));
  EXPECT_NE(ra.result.delivered, run_scenario(c).result.delivered);
}

TEST(IncastChurn, SweepOverSeedsIsDeterministicAcrossJobs) {
  const auto run_grid = [](std::size_t jobs) {
    const SweepGrid grid({{"seed", {1, 2, 3, 4}}});
    return SweepRunner(grid, {.jobs = jobs, .seed = 1})
        .run([](const SweepPoint& pt) {
          IncastParams p = small_churn_params();
          p.duration_sec = 4.0;
          p.seed = static_cast<std::uint64_t>(pt.value("seed"));
          Scenario sc = make_topo_scenario(incast_spec(p));
          return summary_row(pt, run_scenario(sc));
        });
  };
  const SweepTable serial = run_grid(1);
  const SweepTable parallel = run_grid(4);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

// --------------------------------------------------------- scale knobs

TEST(IncastScale, StreamingMonitorsKeepCountersAndDropTraces) {
  IncastParams p = small_churn_params();
  Scenario full = make_topo_scenario(incast_spec(p));
  p.streaming = true;
  Scenario streaming = make_topo_scenario(incast_spec(p));
  const ScenarioSummary rf = run_scenario(full);
  const ScenarioSummary rs = run_scenario(streaming);

  // Identical simulation: monitors observe, they must not perturb.
  EXPECT_EQ(rf.result.delivered, rs.result.delivered);
  ASSERT_EQ(rf.result.ports.size(), rs.result.ports.size());
  for (std::size_t i = 0; i < rf.result.ports.size(); ++i) {
    const PortTrace& f = rf.result.ports[i];
    const PortTrace& s = rs.result.ports[i];
    EXPECT_FALSE(f.streaming);
    EXPECT_TRUE(s.streaming);
    EXPECT_TRUE(s.queue.points().empty());
    EXPECT_TRUE(s.departures.empty());
    EXPECT_EQ(f.counters.arrivals, s.counters.arrivals);
    EXPECT_EQ(f.counters.drops, s.counters.drops);
    EXPECT_EQ(f.utilization, s.utilization);
    // The streaming summary agrees with the exact trace it replaces.
    ASSERT_GT(s.queue_summary.count, 0u);
    EXPECT_EQ(s.queue_summary.count, f.queue.points().size());
    double qmax = 0.0;
    for (const auto& pt : f.queue.points()) qmax = std::max(qmax, pt.value);
    EXPECT_EQ(s.queue_summary.max, qmax);
    EXPECT_NEAR(s.queue_summary.mean,
                f.queue.time_weighted_mean(0.0, rf.result.t_end), 1e-9);
  }
  // Per-drop events are a full-mode trace; aggregate drop counters remain.
  EXPECT_TRUE(rs.result.drops.empty() || !rf.result.drops.empty());
}

TEST(IncastScale, FlowInstrumentationOffDropsTracesOnly) {
  IncastParams p = small_churn_params();
  Scenario on = make_topo_scenario(incast_spec(p));
  p.per_flow_traces = false;
  Scenario off = make_topo_scenario(incast_spec(p));
  const ScenarioSummary ron = run_scenario(on);
  const ScenarioSummary roff = run_scenario(off);

  EXPECT_EQ(ron.result.delivered, roff.result.delivered);
  EXPECT_EQ(ron.util_fwd, roff.util_fwd);
  EXPECT_FALSE(ron.result.cwnd.empty());
  EXPECT_FALSE(ron.result.rtt_samples.empty());
  EXPECT_TRUE(roff.result.cwnd.empty());
  EXPECT_TRUE(roff.result.rtt_samples.empty());
  EXPECT_TRUE(roff.result.ack_arrivals.empty());
  // Aggregate sender counters survive the flyweight mode.
  ASSERT_EQ(ron.result.senders.size(), roff.result.senders.size());
  for (const auto& [id, counters] : ron.result.senders) {
    ASSERT_TRUE(roff.result.senders.count(id));
    EXPECT_EQ(counters.data_sent, roff.result.senders.at(id).data_sent);
  }
}

}  // namespace
}  // namespace tcpdyn::core
