// Analysis-layer unit tests on synthetic traces with known answers.
#include "core/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

namespace tcpdyn::core {
namespace {

util::TimeSeries sine_series(double period, double phase, double to,
                             double dt = 0.01) {
  util::TimeSeries s;
  for (double t = 0.0; t <= to; t += dt) {
    s.record(t, 10.0 + 5.0 * std::sin(2.0 * std::numbers::pi * (t / period) +
                                      phase));
  }
  return s;
}

TEST(ClassifySync, InPhaseSines) {
  const auto a = sine_series(10.0, 0.0, 100.0);
  const auto b = sine_series(10.0, 0.0, 100.0);
  const SyncResult r = classify_sync(a, b, 0.0, 100.0);
  EXPECT_EQ(r.mode, SyncMode::kInPhase);
  EXPECT_GT(r.correlation, 0.95);
}

TEST(ClassifySync, OutOfPhaseSines) {
  const auto a = sine_series(10.0, 0.0, 100.0);
  const auto b = sine_series(10.0, std::numbers::pi, 100.0);
  const SyncResult r = classify_sync(a, b, 0.0, 100.0);
  EXPECT_EQ(r.mode, SyncMode::kOutOfPhase);
  EXPECT_LT(r.correlation, -0.95);
}

TEST(ClassifySync, QuadratureIsUnclassified) {
  const auto a = sine_series(10.0, 0.0, 100.0);
  const auto b = sine_series(10.0, std::numbers::pi / 2.0, 100.0);
  const SyncResult r = classify_sync(a, b, 0.0, 100.0);
  EXPECT_EQ(r.mode, SyncMode::kUnclassified);
}

TEST(ClassifySync, DetrendingIgnoresSharedRamp) {
  // Two anti-phase oscillations riding the same strong upward trend would
  // appear correlated without detrending.
  util::TimeSeries a, b;
  for (double t = 0.0; t <= 100.0; t += 0.05) {
    const double ramp = 2.0 * t;
    a.record(t, ramp + std::sin(t));
    b.record(t, ramp - std::sin(t));
  }
  const SyncResult r = classify_sync(a, b, 0.0, 100.0);
  EXPECT_EQ(r.mode, SyncMode::kOutOfPhase);
}

TEST(ClassifySync, ConstantSeriesIsDegenerate) {
  // A flat queue trace (e.g. an empty or saturated buffer) has no variance:
  // the result must be flagged degenerate with rho 0, not silently
  // unclassified — "no signal" is different from "no phase relation".
  util::TimeSeries flat, sine;
  for (double t = 0.0; t <= 100.0; t += 0.1) {
    flat.record(t, 7.0);
    sine.record(t, 10.0 + 5.0 * std::sin(t));
  }
  const SyncResult r = classify_sync(flat, sine, 0.0, 100.0);
  EXPECT_TRUE(r.degenerate);
  EXPECT_EQ(r.mode, SyncMode::kUnclassified);
  EXPECT_DOUBLE_EQ(r.correlation, 0.0);
  EXPECT_FALSE(std::isnan(r.correlation));
  // Both flat: same verdict.
  const SyncResult rr = classify_sync(flat, flat, 0.0, 100.0);
  EXPECT_TRUE(rr.degenerate);
  EXPECT_DOUBLE_EQ(rr.correlation, 0.0);
  // And a healthy pair is not flagged.
  EXPECT_FALSE(classify_sync(sine, sine, 0.0, 100.0).degenerate);
}

TEST(ClassifySyncToString, Names) {
  EXPECT_STREQ(to_string(SyncMode::kInPhase), "in-phase");
  EXPECT_STREQ(to_string(SyncMode::kOutOfPhase), "out-of-phase");
  EXPECT_STREQ(to_string(SyncMode::kUnclassified), "unclassified");
}

TEST(Clustering, WindowFilter) {
  PortTrace pt;
  pt.departures = {{1.0, 0, true}, {2.0, 0, true}, {3.0, 1, true},
                   {4.0, 1, true}, {50.0, 2, true}};
  const ClusteringStats c = clustering(pt, 0.0, 10.0);
  EXPECT_EQ(c.departures, 4u);
  EXPECT_DOUBLE_EQ(c.mean_run_length, 2.0);
  EXPECT_EQ(c.max_run_length, 2u);
}

TEST(AckCompression, SmoothClockHasNoCompression) {
  std::vector<double> times;
  for (int i = 0; i < 100; ++i) times.push_back(i * 0.08);
  const AckCompressionStats s = ack_compression(times, 0.0, 100.0, 0.08);
  EXPECT_EQ(s.gaps, 99u);
  EXPECT_DOUBLE_EQ(s.compressed_fraction, 0.0);
  EXPECT_NEAR(s.min_gap, 0.08, 1e-12);
  EXPECT_NEAR(s.median_gap, 0.08, 1e-12);
}

TEST(AckCompression, CompressedClusterDetected) {
  // Clusters of 5 ACKs spaced 8 ms, clusters 1 s apart.
  std::vector<double> times;
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 5; ++i) times.push_back(c * 1.0 + i * 0.008);
  }
  const AckCompressionStats s = ack_compression(times, 0.0, 100.0, 0.08);
  // 4 compressed gaps per cluster out of 49 total.
  EXPECT_NEAR(s.compressed_fraction, 40.0 / 49.0, 1e-9);
  EXPECT_NEAR(s.min_gap, 0.008, 1e-12);
}

TEST(AckCompression, EmptyAndWindowed) {
  EXPECT_EQ(ack_compression({}, 0.0, 1.0, 0.08).gaps, 0u);
  const std::vector<double> times{0.5, 5.0, 5.1};
  const AckCompressionStats s = ack_compression(times, 4.0, 6.0, 0.08);
  EXPECT_EQ(s.gaps, 1u);  // only the 5.0 -> 5.1 gap lies in the window
}

// The sorted path (one sort, then percentile_sorted) must give what
// util::percentile gives on the unsorted gaps, with repeated gaps and for
// odd and even counts.
TEST(AckCompression, SortedPercentilesMatchPercentile) {
  const double steps[] = {0.08, 0.008, 0.008, 0.02, 0.08, 0.001, 0.008};
  for (const std::size_t n_gaps : {1u, 2u, 9u, 10u, 49u, 50u}) {
    std::vector<double> times{0.0};
    std::vector<double> gaps;
    for (std::size_t i = 0; i < n_gaps; ++i) {
      times.push_back(times.back() + steps[(i * 3) % 7]);
      gaps.push_back(times.back() - times[times.size() - 2]);
    }
    const AckCompressionStats s = ack_compression(times, 0.0, 100.0, 0.08);
    ASSERT_EQ(s.gaps, n_gaps);
    EXPECT_EQ(s.min_gap, *std::min_element(gaps.begin(), gaps.end()));
    EXPECT_EQ(s.p10_gap, util::percentile(gaps, 10.0)) << n_gaps;
    EXPECT_EQ(s.median_gap, util::percentile(gaps, 50.0)) << n_gaps;
  }
}

TEST(Epochs, GroupsByGap) {
  std::vector<DropEvent> drops = {
      {10.0, 0, true, 1, "q"}, {10.1, 0, true, 2, "q"},
      {20.0, 1, true, 3, "q"}, {20.2, 1, true, 4, "q"},
      {30.0, 0, true, 5, "q"},
  };
  const EpochStats s = analyze_epochs(drops, 0.0, 100.0, 2.0);
  ASSERT_EQ(s.epochs.size(), 3u);
  EXPECT_EQ(s.epochs[0].total_drops, 2);
  EXPECT_DOUBLE_EQ(s.mean_drops_per_epoch, 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.mean_interval, 10.0);
  EXPECT_DOUBLE_EQ(s.single_loser_fraction, 1.0);
  // Losers: 0, 1, 0 -> both consecutive pairs alternate.
  EXPECT_DOUBLE_EQ(s.loser_alternation_fraction, 1.0);
  EXPECT_DOUBLE_EQ(s.data_drop_fraction, 1.0);
}

TEST(Epochs, MultiLoserDetection) {
  std::vector<DropEvent> drops = {
      {10.0, 0, true, 1, "q"}, {10.1, 1, true, 2, "q"},
      {20.0, 0, true, 3, "q"}, {20.1, 1, true, 4, "q"},
  };
  const EpochStats s = analyze_epochs(drops, 0.0, 100.0, 2.0);
  ASSERT_EQ(s.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(s.multi_loser_fraction, 1.0);
  EXPECT_DOUBLE_EQ(s.single_loser_fraction, 0.0);
}

TEST(Epochs, AckDropFractionAndWindow) {
  std::vector<DropEvent> drops = {
      {10.0, 0, true, 1, "q"},
      {10.1, 0, false, 2, "q"},  // ACK drop
      {500.0, 0, true, 3, "q"},  // outside window
  };
  const EpochStats s = analyze_epochs(drops, 0.0, 100.0, 2.0);
  EXPECT_EQ(s.epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(s.data_drop_fraction, 0.5);
}

TEST(Epochs, EmptyInput) {
  const EpochStats s = analyze_epochs({}, 0.0, 100.0, 2.0);
  EXPECT_TRUE(s.epochs.empty());
  EXPECT_DOUBLE_EQ(s.mean_drops_per_epoch, 0.0);
}

TEST(Epochs, NoAlternation) {
  std::vector<DropEvent> drops = {
      {10.0, 0, true, 1, "q"}, {20.0, 0, true, 2, "q"},
      {30.0, 0, true, 3, "q"},
  };
  const EpochStats s = analyze_epochs(drops, 0.0, 100.0, 2.0);
  EXPECT_DOUBLE_EQ(s.loser_alternation_fraction, 0.0);
}

TEST(Fluctuations, SmoothSawtoothSmallRange) {
  // Queue alternating between q and q+1 every 40 ms (the one-way pattern).
  util::TimeSeries q;
  for (int i = 0; i < 1000; ++i) {
    q.record(i * 0.04, 10.0 + (i % 2));
  }
  const FluctuationStats f = rapid_fluctuations(q, 0.0, 40.0, 0.08);
  EXPECT_LE(f.max_range, 1.0);
  EXPECT_LE(f.max_burst_rise, 1.0);
}

TEST(Fluctuations, SquareWaveLargeRange) {
  // Queue jumping by 8 packets within one transmission time, then back.
  util::TimeSeries q;
  for (int i = 0; i < 100; ++i) {
    const double t = i * 1.0;
    q.record(t, 5.0);
    q.record(t + 0.04, 13.0);  // +8 within half a tx time
    q.record(t + 0.5, 5.0);
  }
  const FluctuationStats f = rapid_fluctuations(q, 0.0, 99.0, 0.08);
  EXPECT_GE(f.max_range, 8.0);
  EXPECT_GE(f.max_burst_rise, 8.0);
}

TEST(Fluctuations, DegenerateInputs) {
  util::TimeSeries q;
  q.record(0.0, 1.0);
  const FluctuationStats f = rapid_fluctuations(q, 0.0, 0.0, 0.08);
  EXPECT_DOUBLE_EQ(f.mean_range, 0.0);
  const FluctuationStats g = rapid_fluctuations(q, 0.0, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(g.mean_range, 0.0);
}

// The windowed std::minmax_element scan that rapid_fluctuations replaced,
// kept as its oracle.
FluctuationStats reference_fluctuations(const util::TimeSeries& queue,
                                        double from, double to,
                                        double data_tx_time) {
  FluctuationStats f;
  if (data_tx_time <= 0.0 || to <= from) return f;
  const double dt = data_tx_time / 8.0;
  const std::vector<double> samples = queue.resample(from, to, dt);
  const std::size_t w = 8;
  if (samples.size() <= w) return f;
  double range_sum = 0.0;
  std::size_t windows = 0;
  for (std::size_t i = 0; i + w < samples.size(); ++i) {
    const auto [mn, mx] = std::minmax_element(
        samples.begin() + static_cast<std::ptrdiff_t>(i),
        samples.begin() + static_cast<std::ptrdiff_t>(i + w + 1));
    const double range = *mx - *mn;
    range_sum += range;
    f.max_range = std::max(f.max_range, range);
    ++windows;
  }
  f.mean_range = range_sum / static_cast<double>(windows);
  for (std::size_t i = 0; i + w < samples.size(); ++i) {
    f.max_burst_rise = std::max(f.max_burst_rise, samples[i + w] - samples[i]);
  }
  return f;
}

// Step series with plateaus (ties inside a window) and one-sample spikes
// up and down, over w, w + 1 and w + 2 samples (no window, one, two; w is
// 8) and a long run: every field must equal the oracle's exactly.
TEST(Fluctuations, OnePassMatchesMinmaxScan) {
  const double tx = 0.08;
  const double dt = tx / 8.0;
  util::TimeSeries q;
  const double levels[] = {5.0, 5.0, 13.0, 5.0, 5.0, 6.0, 0.0, 6.0, 7.0};
  for (int i = 0; i < 900; ++i) {
    // Plateaus three samples long, with every seventh sample a spike.
    const double base = levels[(i / 3) % 9] + 0.25 * (i / 27);
    const double v = i % 7 == 3 ? base + 9.0 : i % 11 == 5 ? 0.0 : base;
    q.record(i * dt, v);
  }
  for (const std::size_t n : {8u, 9u, 10u, 900u}) {
    // Midway between sample times, so the resample has exactly n samples.
    const double to = (static_cast<double>(n) - 0.5) * dt;
    ASSERT_EQ(q.resample(0.0, to, dt).size(), n);
    const FluctuationStats got = rapid_fluctuations(q, 0.0, to, tx);
    const FluctuationStats want = reference_fluctuations(q, 0.0, to, tx);
    EXPECT_EQ(got.mean_range, want.mean_range) << n;
    EXPECT_EQ(got.max_range, want.max_range) << n;
    EXPECT_EQ(got.max_burst_rise, want.max_burst_rise) << n;
  }
  // The spikes are in the data: a window spans a full spike.
  EXPECT_GT(reference_fluctuations(q, 0.0, 899.5 * dt, tx).max_range, 9.0);
}

TEST(OscillationPeriod, RecoversKnownPeriod) {
  const auto s = sine_series(34.0, 0.0, 600.0, 0.1);
  const auto p = oscillation_period(s, 0.0, 600.0, 0.1);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 34.0, 2.0);
}

TEST(OscillationPeriod, FlatSeriesHasNone) {
  util::TimeSeries s;
  s.record(0.0, 5.0);
  s.record(100.0, 5.0);
  EXPECT_FALSE(oscillation_period(s, 0.0, 100.0).has_value());
}

// Property: classify_sync is symmetric and sign-flips when one series is
// mirrored around its mean.
class SyncSymmetry : public ::testing::TestWithParam<double> {};

TEST_P(SyncSymmetry, SymmetricAndAntisymmetric) {
  const double period = GetParam();
  const auto a = sine_series(period, 0.3, 200.0, 0.05);
  const auto b = sine_series(period, 0.3 + 0.1, 200.0, 0.05);
  const SyncResult ab = classify_sync(a, b, 0.0, 200.0);
  const SyncResult ba = classify_sync(b, a, 0.0, 200.0);
  EXPECT_NEAR(ab.correlation, ba.correlation, 1e-9);

  // Mirror b around its mean (20 - value flips the 10-centered sine).
  util::TimeSeries mirrored;
  for (const auto& pt : b.points()) mirrored.record(pt.time, 20.0 - pt.value);
  const SyncResult am = classify_sync(a, mirrored, 0.0, 200.0);
  EXPECT_NEAR(am.correlation, -ab.correlation, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Periods, SyncSymmetry,
                         ::testing::Values(5.0, 13.0, 34.0));

}  // namespace
}  // namespace tcpdyn::core
