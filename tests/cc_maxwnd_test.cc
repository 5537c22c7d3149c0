// Regression lock for the maxwnd clamp (PR 3's Tahoe ssthresh/cap fix, now
// expressed once in the CongestionControl base helpers): EVERY algorithm in
// the zoo must respect the receiver-advertised window after arbitrary
// sequences of growth, timeout, and regrowth. usable_window() must never
// exceed maxwnd and never fall below one packet.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tcp/congestion_control.h"

namespace tcpdyn::tcp {
namespace {

constexpr std::uint32_t kMaxwnd = 8;

std::vector<CcAlgorithm> all_algorithms() {
  return {CcAlgorithm::kTahoe, CcAlgorithm::kReno, CcAlgorithm::kNewReno,
          CcAlgorithm::kCubic, CcAlgorithm::kVegas, CcAlgorithm::kBbr,
          CcAlgorithm::kFixedWindow};
}

std::unique_ptr<CongestionControl> make(CcAlgorithm algo) {
  CcConfig cfg;
  cfg.kind = algo;
  cfg.fixed_window = kMaxwnd;  // the fixed window honors maxwnd by config
  return make_congestion_control(cfg);
}

AckContext growth_ack(double t, std::uint32_t seq) {
  AckContext ctx;
  ctx.now = sim::Time::seconds(t);
  ctx.newly_acked = 1;
  ctx.acked_to = seq;
  ctx.rtt_valid = true;
  ctx.rtt = sim::Time::milliseconds(100);
  // Delivery accounting so model-based controllers (BBR) grow too.
  ctx.delivered = seq;
  ctx.delivered_bytes = static_cast<std::uint64_t>(seq) * 500u;
  ctx.inflight = 4;
  return ctx;
}

void drive_growth(CongestionControl& cc, double t0, std::uint32_t* seq,
                  int acks) {
  for (int i = 0; i < acks; ++i) {
    cc.on_sent(sim::Time::seconds(t0 + 0.001 * i), *seq + 4, 500, false);
    cc.on_ack(growth_ack(t0 + 0.001 * i, ++*seq));
  }
}

TEST(CcMaxwnd, EveryAlgorithmRespectsMaxwndAfterTimeout) {
  for (CcAlgorithm algo : all_algorithms()) {
    SCOPED_TRACE(to_string(algo));
    auto cc = make(algo);
    cc->bind(nullptr, CcEnv{kMaxwnd, 3});
    std::uint32_t seq = 0;
    // Grow far past the cap: 10× maxwnd worth of ACKs.
    drive_growth(*cc, 0.0, &seq, 10 * kMaxwnd);
    EXPECT_LE(cc->usable_window(), kMaxwnd) << "after growth";
    EXPECT_GE(cc->usable_window(), 1u);
    // Timeout collapses the window...
    cc->on_timeout(sim::Time::seconds(10.0));
    EXPECT_LE(cc->usable_window(), kMaxwnd) << "after timeout";
    EXPECT_GE(cc->usable_window(), 1u);
    // ...and the PR-3 bug was here: regrowth after the collapse must clamp
    // again (the old Reno accumulator sailed past maxwnd).
    drive_growth(*cc, 20.0, &seq, 10 * kMaxwnd);
    EXPECT_LE(cc->usable_window(), kMaxwnd) << "after regrowth";
    // Same through the dup-ack loss path.
    cc->on_dup_ack_loss(sim::Time::seconds(40.0));
    EXPECT_LE(cc->usable_window(), kMaxwnd) << "after dup-ack loss";
    EXPECT_GE(cc->usable_window(), 1u);
    drive_growth(*cc, 50.0, &seq, 10 * kMaxwnd);
    EXPECT_LE(cc->usable_window(), kMaxwnd) << "after second regrowth";
  }
}

TEST(CcMaxwnd, SsthreshHelpersClampToMaxwnd) {
  // The shared halved-ssthresh helper caps at maxwnd BEFORE halving-floor
  // bookkeeping, so an adaptive sender that grew while the advertised
  // window was larger can never carry an over-cap ssthresh into recovery.
  for (CcAlgorithm algo : all_algorithms()) {
    if (algo == CcAlgorithm::kFixedWindow) continue;
    SCOPED_TRACE(to_string(algo));
    auto cc = make(algo);
    cc->bind(nullptr, CcEnv{4, 3});  // tiny cap
    std::uint32_t seq = 0;
    drive_growth(*cc, 0.0, &seq, 64);
    cc->on_dup_ack_loss(sim::Time::seconds(1.0));
    drive_growth(*cc, 2.0, &seq, 64);
    cc->on_timeout(sim::Time::seconds(3.0));
    drive_growth(*cc, 4.0, &seq, 64);
    EXPECT_LE(cc->usable_window(), 4u);
    EXPECT_GE(cc->usable_window(), 1u);
  }
}

TEST(CcMaxwnd, FactoryProducesEveryAlgorithm) {
  for (CcAlgorithm algo : all_algorithms()) {
    auto cc = make(algo);
    ASSERT_NE(cc, nullptr);
    EXPECT_EQ(cc->algorithm(), algo);
    // Round-trip through the flag/topo-file names.
    const auto parsed = parse_cc(to_string(algo));
    ASSERT_TRUE(parsed.has_value()) << to_string(algo);
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_FALSE(parse_cc("bbr2").has_value());
  EXPECT_FALSE(parse_cc("").has_value());
}

}  // namespace
}  // namespace tcpdyn::tcp
