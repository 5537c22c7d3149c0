#include "util/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tcpdyn::util {
namespace {

TEST(Summarize, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summarize, SingleValue) {
  const std::vector<double> xs{4.5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 4.5);
  EXPECT_DOUBLE_EQ(s.max, 4.5);
}

TEST(Summarize, KnownMoments) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);
}

TEST(Percentile, UnsortedInputAndClamping) {
  const std::vector<double> xs{30.0, 10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(a, b), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputsReturnZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> flat{5.0, 5.0, 5.0};
  const std::vector<double> shorter{1.0, 2.0};
  EXPECT_DOUBLE_EQ(pearson(a, flat), 0.0);
  EXPECT_DOUBLE_EQ(pearson(a, shorter), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
}

TEST(PearsonChecked, DistinguishesDegenerateFromUncorrelated) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> flat{5.0, 5.0, 5.0};
  // A constant series has no variance: rho 0 is "no signal", and the flag
  // says so — unlike a genuinely uncorrelated pair, where rho 0 is a result.
  const Correlation degen = pearson_checked(a, flat);
  EXPECT_TRUE(degen.degenerate);
  EXPECT_DOUBLE_EQ(degen.rho, 0.0);
  const std::vector<double> x{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> y{1.0, 1.0, -1.0, -1.0};
  const Correlation ortho = pearson_checked(x, y);
  EXPECT_FALSE(ortho.degenerate);
  EXPECT_NEAR(ortho.rho, 0.0, 1e-12);
}

TEST(PearsonChecked, SizeMismatchAndEmptyAreDegenerate) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> shorter{1.0, 2.0};
  EXPECT_TRUE(pearson_checked(a, shorter).degenerate);
  EXPECT_TRUE(pearson_checked({}, {}).degenerate);
}

TEST(PearsonChecked, AgreesWithPearsonOnHealthyInput) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  const Correlation c = pearson_checked(a, b);
  EXPECT_FALSE(c.degenerate);
  EXPECT_NEAR(c.rho, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.rho, pearson(a, b));
}

TEST(Pearson, IndependentSeriesNearZero) {
  // Orthogonal-by-construction series.
  const std::vector<double> a{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> b{1.0, 1.0, -1.0, -1.0};
  EXPECT_NEAR(pearson(a, b), 0.0, 1e-12);
}

TEST(Detrend, RemovesExactLinearTrend) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(3.0 + 0.5 * i);
  const std::vector<double> d = detrend(xs);
  for (double v : d) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Detrend, PreservesResidualShape) {
  // Sine on a ramp: after detrending the sine should survive.
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(0.1 * i + std::sin(2.0 * std::numbers::pi * i / 20.0));
  }
  const std::vector<double> d = detrend(xs);
  const Summary s = summarize(d);
  EXPECT_NEAR(s.mean, 0.0, 1e-9);
  EXPECT_GT(s.stddev, 0.5);  // the oscillation survived
}

TEST(Detrend, ShortInputs) {
  EXPECT_TRUE(detrend({}).empty());
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(detrend(one)[0], 0.0);
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(std::sin(2.0 * std::numbers::pi * i / 25.0));
  }
  EXPECT_GT(autocorrelation(xs, 25), 0.8);
  EXPECT_LT(autocorrelation(xs, 12), 0.0);  // half period: anti-correlated
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 500), 0.0);  // lag beyond length
}

TEST(DominantPeriod, FindsSinePeriod) {
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) {
    xs.push_back(std::sin(2.0 * std::numbers::pi * i / 40.0));
  }
  const auto p = dominant_period(xs);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(static_cast<double>(*p), 40.0, 2.0);
}

TEST(DominantPeriod, SquareWavePeriod) {
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) xs.push_back((i / 30) % 2 == 0 ? 1.0 : 0.0);
  const auto p = dominant_period(xs);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(static_cast<double>(*p), 60.0, 3.0);
}

TEST(DominantPeriod, AperiodicReturnsNullopt) {
  std::vector<double> xs;
  // Monotone ramp has no autocorrelation peak after detrending... feed the
  // raw ramp: its ACF decays monotonically, no local max above threshold.
  for (int i = 0; i < 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_FALSE(dominant_period(detrend(xs)).has_value());
  EXPECT_FALSE(dominant_period(std::vector<double>{1.0, 2.0}).has_value());
}

// The per-lag loop that the blocked autocorrelation kernel replaced, kept
// here as its oracle: the mean, the centred sum of squares, then each
// lag's sum on its own, every sum in index order.
double reference_autocorrelation(std::span<const double> xs,
                                 std::size_t lag) {
  if (lag >= xs.size()) return 0.0;
  const double m = mean(xs);
  double denom = 0.0;
  for (const double x : xs) {
    const double d = x - m;
    denom += d * d;
  }
  if (denom <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i + lag < xs.size(); ++i) {
    sum += (xs[i] - m) * (xs[i + lag] - m);
  }
  return sum / denom;
}

// dominant_period computes only the lags its scan reads, in blocks; it
// must return exactly what the full scan over every lag in
// [min_lag, n/2] of the reference values returns.
std::optional<std::size_t> full_scan_period(std::span<const double> xs,
                                            std::size_t min_lag,
                                            double min_corr) {
  const std::size_t n = xs.size();
  if (n < 4 || min_lag + 1 >= n / 2) return std::nullopt;
  const std::size_t max_lag = n / 2;
  std::vector<double> ac(max_lag + 1, 0.0);
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    ac[lag] = reference_autocorrelation(xs, lag);
  }
  bool dipped = false;
  for (std::size_t lag = min_lag + 1; lag < max_lag; ++lag) {
    if (ac[lag] < min_corr) dipped = true;
    if (dipped && ac[lag] >= min_corr && ac[lag] >= ac[lag - 1] &&
        ac[lag] >= ac[lag + 1]) {
      return lag;
    }
  }
  return std::nullopt;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(DominantPeriod, MatchesFullScan) {
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<double> sine, square, noisy, ramp, late;
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    sine.push_back(std::sin(2.0 * std::numbers::pi * i / 37.0));
    square.push_back((i / 23) % 2 == 0 ? 1.0 : 0.0);
    noisy.push_back(std::sin(2.0 * std::numbers::pi * i / 50.0) +
                    rng.uniform(-1.5, 1.5));
    ramp.push_back(static_cast<double>(i) + rng.uniform(-0.1, 0.1));
    // One slow cycle: the first peak sits near the end of the scan.
    late.push_back(std::cos(2.0 * std::numbers::pi * i / 480.0) +
                   0.05 * std::sin(2.0 * std::numbers::pi * i / 7.0));
  }
  series.emplace_back("sine", sine);
  series.emplace_back("square", square);
  series.emplace_back("noisy", noisy);
  series.emplace_back("noisy_detrended", detrend(noisy));
  series.emplace_back("constant", std::vector<double>(300, 4.0));
  series.emplace_back("too_short", std::vector<double>{1.0, 3.0, 2.0});
  series.emplace_back("aperiodic", detrend(ramp));
  series.emplace_back("late_peak", late);
  std::vector<double> walk{0.0};
  for (int i = 1; i < 700; ++i) {
    walk.push_back(walk.back() + rng.uniform(-1.0, 1.0));
  }
  series.emplace_back("random_walk", walk);
  // The kernel computes 8 lags per pass, and a lag's last terms come after
  // the pass the whole block shares. Lengths 8k + 1 ... 8k + 7 cut those
  // tails at every offset. Periods 24, 31, 32 and 39 put the peak at lags
  // = 0 and 7 (mod 8); blocks start at min_lag, so min_lag 7 and 8 make
  // the peak the first lag of a block for one pair and the last (its right
  // neighbour in the next block) for the other.
  for (std::size_t r = 1; r <= 7; ++r) {
    for (const double period : {24.0, 31.0, 32.0, 39.0}) {
      std::vector<double> xs;
      for (std::size_t i = 0; i < 200 + r; ++i) {
        xs.push_back(std::sin(2.0 * std::numbers::pi *
                              static_cast<double>(i) / period) +
                     rng.uniform(-0.3, 0.3));
      }
      series.emplace_back("len" + std::to_string(xs.size()) + "_period" +
                              std::to_string(static_cast<int>(period)),
                          xs);
    }
  }
  // A first peak within 8 lags of n/2 (at 95 of 101): from min_lag 7 the
  // block that holds it runs past the end of the scan.
  std::vector<double> edge;
  for (int i = 0; i < 203; ++i) {
    edge.push_back(std::cos(2.0 * std::numbers::pi * i / 99.0));
  }
  series.emplace_back("edge_peak", edge);

  std::size_t found = 0;
  for (const auto& [name, xs] : series) {
    // Every lag, bit for bit, including past n/2 and past the end.
    for (std::size_t lag = 0; lag <= xs.size() + 1; ++lag) {
      ASSERT_EQ(bits(autocorrelation(xs, lag)),
                bits(reference_autocorrelation(xs, lag)))
          << name << " lag=" << lag;
    }
    for (const std::size_t min_lag :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
          std::size_t{10}, xs.size() / 2}) {
      for (const double min_corr : {-0.2, 0.0, 0.1, 0.5, 0.95}) {
        const auto want = full_scan_period(xs, min_lag, min_corr);
        EXPECT_EQ(dominant_period(xs, min_lag, min_corr), want)
            << name << " min_lag=" << min_lag << " min_corr=" << min_corr;
        found += want.has_value();
        if (!want) continue;
        // A threshold equal to the peak's own value: one ulp less from the
        // blocked kernel and the scan would pass the peak by.
        const double edge_corr = reference_autocorrelation(xs, *want);
        EXPECT_EQ(dominant_period(xs, min_lag, edge_corr),
                  full_scan_period(xs, min_lag, edge_corr))
            << name << " min_lag=" << min_lag << " at the peak's value";
      }
    }
  }
  // The cases cover both outcomes, including the late peak.
  EXPECT_GT(found, 10u);
  EXPECT_EQ(dominant_period(late), full_scan_period(late, 2, 0.1));
  ASSERT_TRUE(dominant_period(late).has_value());
  EXPECT_GT(*dominant_period(late), 400u);
  const auto edge_peak = dominant_period(edge);
  ASSERT_TRUE(edge_peak.has_value());
  EXPECT_GT(*edge_peak + 8, edge.size() / 2);
  EXPECT_FALSE(dominant_period(std::vector<double>(300, 4.0)).has_value());
}

TEST(RunLengths, Empty) {
  const RunLengthStats s = run_lengths({});
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.runs, 0u);
}

TEST(RunLengths, SingleRun) {
  const std::vector<std::uint32_t> xs{7, 7, 7, 7};
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, 1u);
  EXPECT_EQ(s.max_run_length, 4u);
  EXPECT_DOUBLE_EQ(s.mean_run_length, 4.0);
  EXPECT_DOUBLE_EQ(s.same_successor_fraction, 1.0);
}

TEST(RunLengths, PerfectInterleaving) {
  const std::vector<std::uint32_t> xs{0, 1, 0, 1, 0, 1};
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, 6u);
  EXPECT_EQ(s.max_run_length, 1u);
  EXPECT_DOUBLE_EQ(s.mean_run_length, 1.0);
  EXPECT_DOUBLE_EQ(s.same_successor_fraction, 0.0);
}

TEST(RunLengths, MixedRuns) {
  const std::vector<std::uint32_t> xs{0, 0, 0, 1, 1, 2};
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.max_run_length, 3u);
  EXPECT_DOUBLE_EQ(s.mean_run_length, 2.0);
  EXPECT_DOUBLE_EQ(s.same_successor_fraction, 3.0 / 5.0);
}

// Property sweep: for a two-symbol sequence of n runs of length k,
// mean_run_length == k and same_successor_fraction == (n*k - n)/(n*k - 1).
class RunLengthProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RunLengthProperty, UniformRunsRoundTrip) {
  const auto [n_runs, run_len] = GetParam();
  std::vector<std::uint32_t> xs;
  for (int r = 0; r < n_runs; ++r) {
    for (int i = 0; i < run_len; ++i) {
      xs.push_back(static_cast<std::uint32_t>(r % 2));
    }
  }
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, static_cast<std::size_t>(n_runs));
  EXPECT_DOUBLE_EQ(s.mean_run_length, static_cast<double>(run_len));
  EXPECT_EQ(s.max_run_length, static_cast<std::size_t>(run_len));
  const double total = static_cast<double>(n_runs) * run_len;
  EXPECT_NEAR(s.same_successor_fraction,
              (total - n_runs) / (total - 1.0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RunLengthProperty,
                         ::testing::Combine(::testing::Values(2, 5, 10),
                                            ::testing::Values(1, 3, 8, 20)));

}  // namespace
}  // namespace tcpdyn::util
