#include "core/analysis.h"

#include <algorithm>
#include <cmath>

namespace tcpdyn::core {

const char* to_string(SyncMode mode) {
  switch (mode) {
    case SyncMode::kInPhase: return "in-phase";
    case SyncMode::kOutOfPhase: return "out-of-phase";
    case SyncMode::kUnclassified: return "unclassified";
  }
  return "?";
}

SyncResult classify_sync(const util::TimeSeries& a, const util::TimeSeries& b,
                         double from, double to, double dt, double threshold) {
  SyncResult r;
  const std::vector<double> sa = util::detrend(a.resample(from, to, dt));
  const std::vector<double> sb = util::detrend(b.resample(from, to, dt));
  const util::Correlation c = util::pearson_checked(sa, sb);
  r.correlation = c.rho;
  r.degenerate = c.degenerate;
  if (c.degenerate) return r;  // no signal: stays kUnclassified
  if (r.correlation > threshold) {
    r.mode = SyncMode::kInPhase;
  } else if (r.correlation < -threshold) {
    r.mode = SyncMode::kOutOfPhase;
  }
  return r;
}

ClusteringStats clustering(const PortTrace& port, double from, double to) {
  std::vector<std::uint32_t> conns;
  conns.reserve(port.departures.size());
  for (const auto& d : port.departures) {
    if (d.time >= from && d.time <= to) conns.push_back(d.conn);
  }
  const util::RunLengthStats rl = util::run_lengths(conns);
  ClusteringStats c;
  c.departures = rl.total;
  c.same_successor_fraction = rl.same_successor_fraction;
  c.mean_run_length = rl.mean_run_length;
  c.max_run_length = rl.max_run_length;
  return c;
}

AckCompressionStats ack_compression(std::span<const double> ack_times,
                                    double from, double to,
                                    double data_tx_time) {
  std::vector<double> gaps;
  double prev = -1.0;
  for (double t : ack_times) {
    if (t < from || t > to) continue;
    if (prev >= 0.0) gaps.push_back(t - prev);
    prev = t;
  }
  AckCompressionStats s;
  s.gaps = gaps.size();
  if (gaps.empty()) return s;
  // One sort serves the minimum and both percentiles.
  std::sort(gaps.begin(), gaps.end());
  s.min_gap = gaps.front();
  s.p10_gap = util::percentile_sorted(gaps, 10.0);
  s.median_gap = util::percentile_sorted(gaps, 50.0);
  std::size_t compressed = 0;
  for (double g : gaps) {
    if (g < 0.5 * data_tx_time) ++compressed;
  }
  s.compressed_fraction =
      static_cast<double>(compressed) / static_cast<double>(gaps.size());
  return s;
}

EpochStats analyze_epochs(std::span<const DropEvent> drops, double from,
                          double to, double gap) {
  EpochStats s;
  std::size_t data_drops = 0, all_drops = 0;
  for (const DropEvent& d : drops) {
    if (d.time < from || d.time > to) continue;
    ++all_drops;
    if (d.data) ++data_drops;
    if (s.epochs.empty() || d.time - s.epochs.back().end > gap) {
      s.epochs.push_back({d.time, d.time, {}, 0});
    }
    Epoch& e = s.epochs.back();
    e.end = d.time;
    ++e.drops_by_conn[d.conn];
    ++e.total_drops;
  }
  if (all_drops > 0) {
    s.data_drop_fraction =
        static_cast<double>(data_drops) / static_cast<double>(all_drops);
  }
  if (s.epochs.empty()) return s;

  double drop_sum = 0.0;
  std::size_t multi = 0, single = 0;
  for (const Epoch& e : s.epochs) {
    drop_sum += e.total_drops;
    if (e.drops_by_conn.size() > 1) ++multi;
    if (e.drops_by_conn.size() == 1) ++single;
  }
  const double n = static_cast<double>(s.epochs.size());
  s.mean_drops_per_epoch = drop_sum / n;
  s.multi_loser_fraction = static_cast<double>(multi) / n;
  s.single_loser_fraction = static_cast<double>(single) / n;
  if (s.epochs.size() > 1) {
    s.mean_interval =
        (s.epochs.back().start - s.epochs.front().start) / (n - 1.0);
    // Alternation among consecutive single-loser epochs.
    std::size_t pairs = 0, alternating = 0;
    for (std::size_t i = 1; i < s.epochs.size(); ++i) {
      const Epoch& a = s.epochs[i - 1];
      const Epoch& b = s.epochs[i];
      if (a.drops_by_conn.size() == 1 && b.drops_by_conn.size() == 1) {
        ++pairs;
        if (a.drops_by_conn.begin()->first != b.drops_by_conn.begin()->first) {
          ++alternating;
        }
      }
    }
    if (pairs > 0) {
      s.loser_alternation_fraction =
          static_cast<double>(alternating) / static_cast<double>(pairs);
    }
  }
  return s;
}

FluctuationStats rapid_fluctuations(const util::TimeSeries& queue, double from,
                                    double to, double data_tx_time) {
  FluctuationStats f;
  if (data_tx_time <= 0.0 || to <= from) return f;
  // Sample finely relative to the window, then slide a one-transmission-time
  // window and record the range within it.
  const double dt = data_tx_time / 8.0;
  const std::vector<double> samples = queue.resample(from, to, dt);
  const std::size_t w = 8;  // samples per window
  if (samples.size() <= w) return f;
  // One pass: each window's w + 1 samples go through a branch-free
  // min/max chain (std::min keeps the first smallest, std::max(x, mx) the
  // last largest, as std::minmax_element would), and the burst rise reads
  // the same window's ends.
  double range_sum = 0.0;
  for (std::size_t i = 0; i + w < samples.size(); ++i) {
    double mn = samples[i];
    double mx = samples[i];
    for (std::size_t j = i + 1; j <= i + w; ++j) {
      mn = std::min(mn, samples[j]);
      mx = std::max(samples[j], mx);
    }
    const double range = mx - mn;
    range_sum += range;
    f.max_range = std::max(f.max_range, range);
    // Burst rise: largest net increase across one data transmission time.
    f.max_burst_rise = std::max(f.max_burst_rise, samples[i + w] - samples[i]);
  }
  f.mean_range = range_sum / static_cast<double>(samples.size() - w);
  return f;
}

std::optional<double> oscillation_period(const util::TimeSeries& series,
                                         double from, double to, double dt) {
  const std::vector<double> samples =
      util::detrend(series.resample(from, to, dt));
  const auto lag = util::dominant_period(samples, /*min_lag=*/2);
  if (!lag) return std::nullopt;
  return static_cast<double>(*lag) * dt;
}

std::vector<double> throughput_series(const PortTrace& port, net::ConnId conn,
                                      double from, double to, double bin) {
  std::vector<double> out;
  if (bin <= 0.0 || to <= from) return out;
  const auto bins = static_cast<std::size_t>((to - from) / bin);
  out.assign(bins, 0.0);
  for (const Departure& d : port.departures) {
    if (!d.data || d.conn != conn || d.time < from || d.time >= to) continue;
    const auto i = static_cast<std::size_t>((d.time - from) / bin);
    if (i < bins) out[i] += 1.0;
  }
  for (double& v : out) v /= bin;
  return out;
}

SyncResult classify_throughput_alternation(const PortTrace& port_a,
                                           net::ConnId conn_a,
                                           const PortTrace& port_b,
                                           net::ConnId conn_b, double from,
                                           double to, double bin) {
  SyncResult r;
  const auto a = util::detrend(throughput_series(port_a, conn_a, from, to,
                                                 bin));
  const auto b = util::detrend(throughput_series(port_b, conn_b, from, to,
                                                 bin));
  const util::Correlation c = util::pearson_checked(a, b);
  r.correlation = c.rho;
  r.degenerate = c.degenerate;
  if (c.degenerate) return r;  // no signal: stays kUnclassified
  if (r.correlation > 0.2) {
    r.mode = SyncMode::kInPhase;
  } else if (r.correlation < -0.2) {
    r.mode = SyncMode::kOutOfPhase;
  }
  return r;
}

EffectivePipe effective_pipe(const ExperimentResult& result, net::ConnId conn,
                             double from, double to) {
  EffectivePipe ep;
  if (to <= from) return ep;
  auto it = result.rtt_samples.find(conn);
  if (it != result.rtt_samples.end()) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& [t, rtt] : it->second) {
      if (t < from || t > to) continue;
      sum += rtt;
      ++n;
    }
    if (n > 0) ep.mean_rtt = sum / static_cast<double>(n);
  }
  auto del = result.delivered.find(conn);
  if (del != result.delivered.end()) {
    ep.goodput_pps = static_cast<double>(del->second) / (to - from);
  }
  ep.packets = ep.goodput_pps * ep.mean_rtt;
  return ep;
}

std::optional<double> cwnd_growth_exponent(const util::TimeSeries& cwnd,
                                           double from, double to,
                                           double dt) {
  if (to <= from || dt <= 0.0) return std::nullopt;
  std::vector<double> log_t, log_w;
  for (double t = from + dt; t <= to; t += dt) {
    const double w = cwnd.value_at(t);
    if (w <= 0.0) continue;
    log_t.push_back(std::log(t - from));
    log_w.push_back(std::log(w));
  }
  if (log_t.size() < 4) return std::nullopt;
  // Least-squares slope of log_w on log_t.
  const double mt = util::mean(log_t);
  const double mw = util::mean(log_w);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < log_t.size(); ++i) {
    sxy += (log_t[i] - mt) * (log_w[i] - mw);
    sxx += (log_t[i] - mt) * (log_t[i] - mt);
  }
  if (sxx <= 0.0) return std::nullopt;
  return sxy / sxx;
}

double jain_fairness(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double x : values) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

FlowSummary summarize_flows(const ExperimentResult& result) {
  FlowSummary fs;
  const double window = result.t_end - result.t_start;
  if (window <= 0.0) return fs;
  std::vector<double> goodputs;
  goodputs.reserve(result.delivered.size());
  for (const auto& [conn, packets] : result.delivered) {
    goodputs.push_back(static_cast<double>(packets) / window);
  }
  fs.flows = goodputs.size();
  if (goodputs.empty()) return fs;
  fs.goodput_min = *std::min_element(goodputs.begin(), goodputs.end());
  fs.goodput_max = *std::max_element(goodputs.begin(), goodputs.end());
  fs.goodput_mean = util::mean(goodputs);
  fs.jain = jain_fairness(goodputs);
  return fs;
}

WaveStats analyze_waves(std::span<const PortTrace> ports, double from,
                        double to, double dt, double max_lag_sec) {
  WaveStats w;
  w.hops = ports.size();
  if (ports.empty() || to <= from || dt <= 0.0) {
    w.degenerate = true;
    return w;
  }
  std::vector<std::vector<double>> series;
  series.reserve(ports.size());
  double amp_sum = 0.0, util_sum = 0.0;
  for (const PortTrace& p : ports) {
    series.push_back(util::detrend(p.queue.resample(from, to, dt)));
    amp_sum += util::summarize(series.back()).stddev;
    util_sum += p.utilization;
  }
  const double n_ports = static_cast<double>(ports.size());
  w.mean_amplitude = amp_sum / n_ports;
  w.mean_utilization = util_sum / n_ports;
  if (ports.size() < 2) {
    w.degenerate = true;
    return w;
  }
  const auto max_lag = static_cast<std::size_t>(max_lag_sec / dt);

  // Peak correlation per hop distance: adjacent pairs (d = 1) give the wave
  // speed, the decay over d gives the correlation length.
  std::vector<double> lag_sum(ports.size(), 0.0);
  std::vector<double> rho_sum(ports.size(), 0.0);
  std::vector<std::size_t> pair_count(ports.size(), 0);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = i + 1; j < series.size(); ++j) {
      const util::LaggedCorrelation c =
          util::peak_cross_correlation(series[i], series[j], max_lag);
      if (c.degenerate) continue;
      const std::size_t d = j - i;
      lag_sum[d] += static_cast<double>(c.lag) * dt;
      rho_sum[d] += c.rho;
      ++pair_count[d];
    }
  }
  if (pair_count[1] == 0) {
    w.degenerate = true;
    return w;
  }
  w.mean_adjacent_lag_sec =
      lag_sum[1] / static_cast<double>(pair_count[1]);
  w.mean_adjacent_correlation =
      rho_sum[1] / static_cast<double>(pair_count[1]);
  if (w.mean_adjacent_lag_sec != 0.0) {
    w.wave_speed_hops_per_sec = 1.0 / std::abs(w.mean_adjacent_lag_sec);
  }

  // Least-squares fit of ln c(d) = -d / xi + const over distances with a
  // positive mean peak correlation.
  std::vector<double> ds, log_cs;
  for (std::size_t d = 1; d < pair_count.size(); ++d) {
    if (pair_count[d] == 0) continue;
    const double c = rho_sum[d] / static_cast<double>(pair_count[d]);
    if (c <= 0.0) continue;
    ds.push_back(static_cast<double>(d));
    log_cs.push_back(std::log(c));
  }
  if (ds.size() >= 2) {
    const double md = util::mean(ds);
    const double mc = util::mean(log_cs);
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      sxy += (ds[i] - md) * (log_cs[i] - mc);
      sxx += (ds[i] - md) * (ds[i] - md);
    }
    if (sxx > 0.0 && sxy < 0.0) {
      w.correlation_length_hops = -sxx / sxy;
    }
  }
  return w;
}

}  // namespace tcpdyn::core
