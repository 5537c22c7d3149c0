// Analysis of experiment traces: everything the paper's figures and prose
// claims are expressed in — utilization, synchronization modes, packet
// clustering, ACK-compression, congestion epochs / acceleration accounting,
// rapid queue fluctuations, and oscillation periods. Definitions are given
// in DESIGN.md §5.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/experiment.h"
#include "util/stats.h"
#include "util/time_series.h"

namespace tcpdyn::core {

// ---------------------------------------------------------------- sync mode

enum class SyncMode { kInPhase, kOutOfPhase, kUnclassified };

struct SyncResult {
  SyncMode mode = SyncMode::kUnclassified;
  double correlation = 0.0;  // Pearson rho of the detrended resampled series
  // True when the correlation is undefined (a constant, flat, or empty
  // series): mode is kUnclassified and correlation is 0, but for the reason
  // "no signal", not "no phase relation".
  bool degenerate = false;
};

// Classifies the phase relation of two series over [from, to], resampling on
// a dt grid and detrending before correlating. |rho| <= threshold is
// unclassified; a zero-variance series sets `degenerate` instead of
// silently reporting rho = 0.
SyncResult classify_sync(const util::TimeSeries& a, const util::TimeSeries& b,
                         double from, double to, double dt = 0.05,
                         double threshold = 0.2);

const char* to_string(SyncMode mode);

// --------------------------------------------------------------- clustering

struct ClusteringStats {
  std::size_t departures = 0;       // data departures analyzed
  double same_successor_fraction = 0.0;
  double mean_run_length = 0.0;
  std::size_t max_run_length = 0;
};

// Run-length structure of the connection ids of packets (data and ACK)
// departing a port within [from, to]. Complete clustering => long runs;
// interleaving => runs of length ~1.
ClusteringStats clustering(const PortTrace& port, double from, double to);

// ----------------------------------------------------------- ACK compression

struct AckCompressionStats {
  std::size_t gaps = 0;
  double min_gap = 0.0;       // seconds
  double p10_gap = 0.0;
  double median_gap = 0.0;
  // Fraction of inter-ACK gaps below half a data transmission time: ~0 for
  // one-way traffic (ACKs arrive spaced by a data transmission time), large
  // under ACK-compression.
  double compressed_fraction = 0.0;
};

// Analyzes inter-arrival gaps of one connection's ACKs at its source within
// [from, to], against the bottleneck data transmission time.
AckCompressionStats ack_compression(std::span<const double> ack_times,
                                    double from, double to,
                                    double data_tx_time);

// -------------------------------------------------------- congestion epochs

struct Epoch {
  double start = 0.0;
  double end = 0.0;
  std::map<net::ConnId, int> drops_by_conn;
  int total_drops = 0;
};

struct EpochStats {
  std::vector<Epoch> epochs;
  double mean_drops_per_epoch = 0.0;
  double mean_interval = 0.0;  // between epoch starts (the oscillation period)
  // Fraction of epochs in which more than one connection loses packets
  // (loss-synchronization).
  double multi_loser_fraction = 0.0;
  // Fraction of epochs in which exactly one connection takes every drop.
  double single_loser_fraction = 0.0;
  // For single-loser epochs: fraction of consecutive pairs whose loser
  // differs (the out-of-phase alternation signature of Fig. 4).
  double loser_alternation_fraction = 0.0;
  double data_drop_fraction = 0.0;  // data drops / all drops (paper: 99.8%)
};

// Groups drop events within [from, to] into congestion epochs: consecutive
// drops closer than `gap` belong to one epoch.
EpochStats analyze_epochs(std::span<const DropEvent> drops, double from,
                          double to, double gap);

// --------------------------------------------------- rapid queue fluctuation

struct FluctuationStats {
  // Queue-length range (max - min) within sliding windows of one data
  // transmission time, over the measurement interval.
  double mean_range = 0.0;
  double max_range = 0.0;
  // Largest net queue-length rise across one data transmission time: with
  // smooth ACK clocking this is ~1 (one arrival per departure); under
  // ACK-compression a burst of data arrives at the ACK rate and the queue
  // climbs by several packets within a single transmission time.
  double max_burst_rise = 0.0;
};

FluctuationStats rapid_fluctuations(const util::TimeSeries& queue, double from,
                                    double to, double data_tx_time);

// ------------------------------------------------------------------- period

// Dominant oscillation period of a queue or cwnd series, in seconds;
// nullopt if the series is aperiodic over the window.
std::optional<double> oscillation_period(const util::TimeSeries& series,
                                         double from, double to,
                                         double dt = 0.1);

// --------------------------------------------------- bandwidth alternation

// Per-connection goodput binned over time, derived from a port's departure
// record (first transmissions only, retransmissions excluded upstream by
// using departures of data packets). Returns packets per second per bin.
std::vector<double> throughput_series(const PortTrace& port, net::ConnId conn,
                                      double from, double to, double bin);

// §4.3.1: in the out-of-phase mode the loser's collapse hands most of the
// bandwidth to the other connection, so the two goodput series alternate
// (negative correlation); in-phase cycles move together. Classifies the
// relation between two connections' goodput using the same thresholds as
// classify_sync.
SyncResult classify_throughput_alternation(const PortTrace& port_a,
                                           net::ConnId conn_a,
                                           const PortTrace& port_b,
                                           net::ConnId conn_b, double from,
                                           double to, double bin);

// ------------------------------------------------------------ effective pipe

// §4.2/§4.3.1: "whenever an ACK packet has to wait in a queue, the queueing
// delay has the same effect as increasing the pipe size." The effective pipe
// a connection sees is its goodput times its measured round-trip time, in
// packets. Because the ACK queueing delay is set by the OTHER connection's
// window — which grows with the buffer — the effective pipe grows with the
// buffer and the idle time per cycle does not shrink: utilization stays
// below optimal no matter how large the buffers are.
struct EffectivePipe {
  double mean_rtt = 0.0;     // seconds, over accepted RTT samples in window
  double goodput_pps = 0.0;  // delivered packets / window length
  double packets = 0.0;      // goodput_pps * mean_rtt
};

// `from`/`to` should be the result's measurement window (delivered counts
// cover exactly that interval).
EffectivePipe effective_pipe(const ExperimentResult& result, net::ConnId conn,
                             double from, double to);

// ------------------------------------------------------- window growth law

// Fits the exponent b of cwnd(t) ~ t^b between two times by least squares
// on log-log samples of the cwnd series (times measured from `from`).
// Slow start gives b >> 1 over short spans; congestion avoidance under
// ACK clocking gives b ~ 1; the paper's §4.3.1 square-root regime (double
// loss, ssthresh = 2) gives b ~ 0.5 over a whole cycle. Returns nullopt if
// fewer than 4 usable samples.
std::optional<double> cwnd_growth_exponent(const util::TimeSeries& cwnd,
                                           double from, double to,
                                           double dt = 0.1);

// ------------------------------------------------------------ flow summary

// Per-flow goodput distribution over the measurement window, for runs with
// many concurrent connections (the Topology scenarios). Goodputs are
// in-order delivered packets per second, one value per connection.
struct FlowSummary {
  std::size_t flows = 0;
  double goodput_min = 0.0;   // packets/sec
  double goodput_mean = 0.0;
  double goodput_max = 0.0;
  // Jain's fairness index (sum x)^2 / (n * sum x^2): 1 when every flow gets
  // an equal share, -> 1/n when one flow takes everything. 0 when all
  // goodputs are zero (undefined).
  double jain = 0.0;
};

double jain_fairness(std::span<const double> values);

// Summarizes ExperimentResult::delivered over [result.t_start, result.t_end].
FlowSummary summarize_flows(const ExperimentResult& result);

// --------------------------------------------------------- congestion waves

// Spatial structure of queue oscillations along a chain of monitored hops
// (the E21 scenario): how fast a congestion wave propagates hop to hop, how
// far queue-length correlations reach, and how violently each queue swings.
// `ports` must be the chain's transmit ports in hop order.
struct WaveStats {
  std::size_t hops = 0;             // ports analyzed
  // Mean peak-correlation lag between adjacent hops, in seconds. Positive
  // means the downstream hop's oscillation trails the upstream one (the wave
  // travels with the data); negative means backpressure travels upstream.
  double mean_adjacent_lag_sec = 0.0;
  // 1 / |mean_adjacent_lag_sec|: hops traversed per second; 0 when the mean
  // lag is zero (in-phase chain) or undefined.
  double wave_speed_hops_per_sec = 0.0;
  // Mean peak cross-correlation between adjacent hops' detrended queues.
  double mean_adjacent_correlation = 0.0;
  // Exponential fit c(d) ~ exp(-d / xi) of peak correlation against hop
  // distance d: the correlation length xi in hops. 0 when the fit is
  // undefined (fewer than 2 usable distances or non-decaying correlation).
  double correlation_length_hops = 0.0;
  // Mean stddev of the detrended per-hop queue series, in packets — the
  // oscillation amplitude the RED-vs-droptail comparison is about.
  double mean_amplitude = 0.0;
  double mean_utilization = 0.0;
  // True when no adjacent pair produced a defined correlation (flat queues).
  bool degenerate = false;
};

// Analyzes the monitored chain over [from, to] on a dt resampling grid,
// searching lags up to `max_lag_sec` for each pair's correlation peak.
WaveStats analyze_waves(std::span<const PortTrace> ports, double from,
                        double to, double dt = 0.05,
                        double max_lag_sec = 2.0);

}  // namespace tcpdyn::core
