// Property-based sweeps (TEST_P): the paper's phenomena must be robust to
// second-order model parameters (host processing time, access-link speed,
// start jitter), and conservation/sanity invariants must hold across the
// whole configuration space.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/dumbbell.h"
#include "core/scenarios.h"
#include "util/rng.h"

namespace tcpdyn::core {
namespace {

// Runs `conns` over the dumbbell `dp` and measures [warmup, warmup +
// duration].
ExperimentResult run_dumbbell(const DumbbellParams& dp,
                              std::vector<ConnSpec> conns, double warmup,
                              double duration) {
  TopoSpec spec;
  spec.topo = dumbbell_topology(dp);
  for (ConnSpec& c : conns) spec.traffic.add(std::move(c));
  Scenario sc = make_topo_scenario(spec);
  return sc.exp->run(sim::Time::seconds(warmup),
                     sim::Time::seconds(duration));
}

// One connection each way, the reverse one starting 1.3 s in.
std::vector<ConnSpec> two_way() {
  std::vector<ConnSpec> conns = {dumbbell_flow(true), dumbbell_flow(false)};
  conns[1].start_time = sim::Time::seconds(1.3);
  return conns;
}

// ---------------------------------------------------------------------------
// ACK-compression is robust to host processing delay and access speed
// (DESIGN.md ablation #2).
struct RobustnessParams {
  std::int64_t access_bps;
  std::int64_t host_processing_us;
};

class AckCompressionRobustness
    : public ::testing::TestWithParam<RobustnessParams> {};

TEST_P(AckCompressionRobustness, PersistsAcrossSecondOrderParams) {
  const RobustnessParams p = GetParam();
  DumbbellParams dp;
  dp.access_bps = p.access_bps;
  // The extra per-packet latency sits on the same path segment as host
  // processing, so sweeping the access delay covers both knobs.
  dp.access_delay = sim::Time::microseconds(p.host_processing_us);
  const ExperimentResult r = run_dumbbell(dp, two_way(), 50.0, 150.0);
  const AckCompressionStats a =
      ack_compression(r.ack_arrivals.at(0), r.t_start, r.t_end,
                      r.data_tx_time);
  EXPECT_GT(a.compressed_fraction, 0.1)
      << "access_bps=" << p.access_bps
      << " extra_delay_us=" << p.host_processing_us;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AckCompressionRobustness,
    ::testing::Values(RobustnessParams{1'000'000, 100},
                      RobustnessParams{10'000'000, 100},
                      RobustnessParams{100'000'000, 10},
                      RobustnessParams{10'000'000, 1000}));

// ---------------------------------------------------------------------------
// The ACK/data size ratio drives ACK-compression (DESIGN.md ablation #3):
// as ACKs approach data size the compressed fraction collapses.
class AckSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AckSizeSweep, CompressionScalesWithSizeRatio) {
  const std::uint32_t ack_bytes = GetParam();
  std::vector<ConnSpec> conns = two_way();
  for (auto& c : conns) c.ack_bytes = ack_bytes;
  const ExperimentResult r =
      run_dumbbell(DumbbellParams{}, std::move(conns), 50.0, 150.0);
  const AckCompressionStats a = ack_compression(
      r.ack_arrivals.at(0), r.t_start, r.t_end, r.data_tx_time);
  if (ack_bytes <= 100) {
    EXPECT_GT(a.compressed_fraction, 0.1) << "ack_bytes=" << ack_bytes;
  } else if (ack_bytes >= 500) {
    // Equal-size ACKs cannot compress below the data transmission time.
    EXPECT_LT(a.compressed_fraction, 0.02) << "ack_bytes=" << ack_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AckSizeSweep,
                         ::testing::Values(25u, 50u, 100u, 500u));

// ---------------------------------------------------------------------------
// Conservation and sanity across a grid of (tau, buffer, #conns per side).
struct GridParams {
  double tau;
  std::size_t buffer;
  std::size_t per_side;
};

class ConfigurationGrid : public ::testing::TestWithParam<GridParams> {};

TEST_P(ConfigurationGrid, InvariantsHold) {
  const GridParams g = GetParam();
  DumbbellParams dp;
  dp.tau = sim::Time::seconds(g.tau);
  dp.buffer_fwd = net::QueueLimit::of(g.buffer);
  dp.buffer_rev = net::QueueLimit::of(g.buffer);
  std::vector<ConnSpec> conns;
  for (std::size_t i = 0; i < 2 * g.per_side; ++i) {
    ConnSpec c = dumbbell_flow(i < g.per_side);
    c.start_time = sim::Time::seconds(0.37 * static_cast<double>(i));
    conns.push_back(c);
  }
  const ExperimentResult r = run_dumbbell(dp, std::move(conns), 30.0, 120.0);

  double total_goodput = 0.0;
  for (const auto& [id, delivered] : r.delivered) {
    EXPECT_GT(delivered, 0u) << "conn " << id << " starved";
    total_goodput += static_cast<double>(delivered);
  }
  // Aggregate goodput across both directions can never exceed 2x capacity.
  EXPECT_LE(total_goodput / 120.0, 2.0 * 12.5 * 1.02);

  for (const auto& port : r.ports) {
    EXPECT_LE(port.utilization, 1.0 + 1e-9);
    EXPECT_LE(port.queue.max_in(0.0, 1e9), static_cast<double>(g.buffer));
    EXPECT_EQ(port.counters.ack_drops, 0u);  // dumbbell invariant (§4.2)
  }
  // Senders never have more outstanding than maxwnd.
  for (const auto& [id, c] : r.senders) {
    EXPECT_LE(c.retransmits, c.data_sent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigurationGrid,
    ::testing::Values(GridParams{0.01, 10, 1}, GridParams{0.01, 20, 1},
                      GridParams{0.01, 30, 3}, GridParams{0.1, 20, 2},
                      GridParams{1.0, 20, 1}, GridParams{1.0, 40, 2}));

// ---------------------------------------------------------------------------
// Start-time jitter must not change the qualitative two-way phenomena:
// losses stay data-only and utilization stays below the one-way level.
class StartJitter : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StartJitter, TwoWayPhenomenaStable) {
  // fig4_twoway(0.01, 20) (the default dumbbell), with start times drawn
  // from another seed.
  util::Rng rng(GetParam());
  std::vector<ConnSpec> conns = {dumbbell_flow(true), dumbbell_flow(false)};
  for (auto& c : conns) {
    c.start_time = sim::Time::seconds(rng.uniform(0.0, 5.0));
  }
  const ExperimentResult r =
      run_dumbbell(DumbbellParams{}, std::move(conns), 100.0, 300.0);
  const EpochStats epochs = analyze_epochs(r.drops, r.t_start, r.t_end, 2.0);
  EXPECT_GT(epochs.epochs.size(), 5u);
  EXPECT_GT(epochs.data_drop_fraction, 0.99);
  EXPECT_NEAR(epochs.mean_drops_per_epoch, 2.0, 1.0);
  const double util = r.ports[0].utilization;
  EXPECT_GT(util, 0.4);
  EXPECT_LT(util, 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StartJitter,
                         ::testing::Values(1u, 5u, 9u, 13u, 99u));

}  // namespace
}  // namespace tcpdyn::core
