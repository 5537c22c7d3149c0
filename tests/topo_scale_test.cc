// Scale and determinism checks for the Topology-built scenarios: the
// parking-lot grid at its default 512 Tahoe flows must close the full
// packet-conservation ledger, and every randomized topology scenario must be
// a pure function of its seed.
#include <gtest/gtest.h>

#include "core/scenarios.h"
#include "core/topo_scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(TopoScale, ParkingLot512FlowsClosesFullLedger) {
  ParkingLotParams p;  // 128 long + 4 x 96 cross = 512 flows
  Scenario sc = make_topo_scenario(parking_lot_spec(p));
  ASSERT_EQ(sc.exp->connection_count(), 512u);
  sc.exp->set_audit_mode(AuditMode::kFull);  // run() throws on any violation
  const ScenarioSummary s = run_scenario(sc);

  EXPECT_EQ(s.flows.flows, 512u);
  EXPECT_GT(s.flows.goodput_mean, 0.0);
  EXPECT_GT(s.flows.jain, 0.0);
  EXPECT_LE(s.flows.jain, 1.0);
  // Under 512-way congestion individual flows can be timeout-starved for
  // the whole window, so no claim on goodput_min; the distribution itself
  // must still be well-formed.
  EXPECT_GE(s.flows.goodput_min, 0.0);
  EXPECT_GE(s.flows.goodput_max, s.flows.goodput_mean);

  const AuditTotals& a = s.result.audit;
  EXPECT_GT(a.created, 0u);
  EXPECT_EQ(a.created, a.delivered + a.dropped + a.in_queue + a.in_flight);
  EXPECT_GT(s.util_fwd, 0.5);  // the first trunk should be busy
}

void expect_identical(const ScenarioSummary& a, const ScenarioSummary& b) {
  EXPECT_EQ(a.result.delivered, b.result.delivered);
  EXPECT_EQ(a.result.drops.size(), b.result.drops.size());
  EXPECT_EQ(a.util_fwd, b.util_fwd);  // exact: same event sequence
  EXPECT_EQ(a.util_rev, b.util_rev);
  EXPECT_EQ(a.flows.jain, b.flows.jain);
  EXPECT_EQ(a.result.audit.created, b.result.audit.created);
}

TEST(TopoScale, RingScenarioIsSeedDeterministic) {
  RingParams p;
  Scenario s1 = make_topo_scenario(ring_spec(p));
  Scenario s2 = make_topo_scenario(ring_spec(p));
  expect_identical(run_scenario(s1), run_scenario(s2));

  RingParams q;
  q.seed = p.seed + 1;
  Scenario s3 = make_topo_scenario(ring_spec(q));
  const ScenarioSummary other = run_scenario(s3);
  Scenario s4 = make_topo_scenario(ring_spec(p));
  const ScenarioSummary base = run_scenario(s4);
  EXPECT_NE(base.result.delivered, other.result.delivered);
}

TEST(TopoScale, WaxmanScenarioIsSeedDeterministic) {
  WaxmanParams p;
  Scenario s1 = make_topo_scenario(waxman_spec(p));
  Scenario s2 = make_topo_scenario(waxman_spec(p));
  expect_identical(run_scenario(s1), run_scenario(s2));
}

}  // namespace
}  // namespace tcpdyn::core
