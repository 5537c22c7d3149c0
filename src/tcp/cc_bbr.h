// BBR-style model-based congestion control (Cardwell et al., "BBR:
// Congestion-Based Congestion Control"; constants follow Linux tcp_bbr.c).
// Instead of reacting to loss, the controller maintains an explicit model of
// the path — the bottleneck bandwidth and the round-trip propagation delay —
// and drives BOTH knobs the transport exposes from it:
//
//   pacing_interval() = packet_bytes / (pacing_gain · BtlBw)
//   cwnd cap          = cwnd_gain · BDP   (BDP = BtlBw · RTprop, in packets)
//
// The model is estimated from the widened hook contract:
//
//   BtlBw  — windowed MAX over ~10 packet-timed rounds of per-ACK delivery
//            rate samples (delivered-bytes delta / inter-ACK interval, from
//            AckContext::delivered_bytes). The max filter rides through
//            transient dips; ACK compression (the paper's central artifact)
//            inflates individual samples, which the windowed max ages out.
//   RTprop — windowed MIN of the Karn-filtered RTT samples over 10 s.
//
// State machine (one simplification per state vs. Linux, noted inline):
//
//   Startup  — pacing/cwnd gain 2/ln2 ≈ 2.885: double the sending rate per
//              round until the bandwidth estimate plateaus (< 25% growth for
//              3 consecutive rounds), then
//   Drain    — inverse gain ≈ 0.347 until inflight <= 1·BDP drains the
//              startup queue, then
//   ProbeBW  — an 8-phase pacing-gain cycle {5/4, 3/4, 1, 1, 1, 1, 1, 1},
//              one phase per RTprop, entered at a FIXED phase (Linux
//              randomizes; determinism forbids it here), cwnd capped at
//              2·BDP.
//   ProbeRTT — whenever the RTprop estimate goes 10 s without a new minimum:
//              cwnd drops to min_cwnd (4) and holds for 200 ms once inflight
//              has drained there, re-exposing the propagation floor; then
//              back to ProbeBW (or Startup if the pipe was never filled)
//              with the prior cwnd restored.
//
// Loss response: a fast retransmit does not touch the model or the window
// (loss is noise, not a congestion signal, to BBR); an RTO collapses cwnd to
// min_cwnd and drops the delivery-rate anchor (a sample spanning the
// blackout would be garbage) but keeps the long-lived filters.
//
// Determinism: every quantity is integer — gains in 1/256 fixed point,
// bandwidth in bytes/sec computed as a 128-bit byte·ns quotient, BDP in
// whole packets — so the trajectory is bit-exact across hosts and worker
// counts, like CUBIC's.
#pragma once

#include <cstdint>
#include <vector>

#include "tcp/congestion_control.h"
#include "tcp/sender.h"

namespace tcpdyn::tcp {

class BbrCc final : public CongestionControl {
 public:
  enum class Mode : std::uint8_t { kStartup, kDrain, kProbeBw, kProbeRtt };

  // Gains in 1/256 fixed point.
  static constexpr std::uint32_t kGainUnit = 256;
  static constexpr std::uint32_t kStartupGain = 739;     // 2/ln2 ≈ 2.885
  static constexpr std::uint32_t kDrainGain = 88;        // ≈ 1/2.885
  static constexpr std::uint32_t kProbeBwCwndGain = 512; // 2·BDP
  static constexpr std::uint32_t kCycleLen = 8;
  static constexpr std::uint32_t kCycleGains[kCycleLen] = {
      320, 192, 256, 256, 256, 256, 256, 256};  // 5/4, 3/4, then cruise
  // ProbeBW entry phase: first cruise phase (fixed, where Linux randomizes).
  static constexpr std::uint32_t kCycleStart = 2;

  explicit BbrCc(BbrParams params = {});

  const char* name() const override { return "bbr"; }
  CcAlgorithm algorithm() const override { return CcAlgorithm::kBbr; }
  double cwnd() const override { return static_cast<double>(cwnd_); }
  // Integer-only hot path, like CUBIC.
  std::uint32_t usable_window() const override {
    const std::uint32_t w = capped_u32(cwnd_);
    return w > 1u ? w : 1u;
  }

  void on_ack(const AckContext& ctx) override;
  void on_sent(sim::Time now, std::uint32_t seq, std::uint32_t size_bytes,
               bool retransmit) override;
  void on_dup_ack_loss(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  void on_ecn_echo(sim::Time now) override;
  sim::Time pacing_interval() const override;

  // --- model observers (tests, experiment layer) -----------------------
  Mode mode() const { return mode_; }
  // Windowed-max bottleneck-bandwidth estimate, bytes/sec (0 = no sample).
  std::uint64_t bandwidth_Bps() const {
    return bw_head_ == bw_filter_.size() ? 0 : bw_filter_[bw_head_].bw_Bps;
  }
  bool has_min_rtt() const { return have_min_rtt_; }
  sim::Time min_rtt() const { return min_rtt_; }
  std::uint64_t round() const { return round_; }
  std::uint32_t cycle_phase() const { return cycle_idx_; }
  bool full_bw_reached() const { return full_bw_reached_; }
  std::uint32_t bdp_packets() const;
  std::uint32_t pacing_gain() const;  // current gain, 1/256 units
  std::uint32_t cwnd_gain() const;    // current gain, 1/256 units

 private:
  struct BwSample {
    std::uint64_t round;
    std::uint64_t bw_Bps;
  };

  void advance_round(const AckContext& ctx);
  void sample_bandwidth(const AckContext& ctx);
  void check_full_bw();
  void advance_state(const AckContext& ctx);
  void update_min_rtt_and_probe_rtt(const AckContext& ctx);
  void update_cwnd(const AckContext& ctx);
  // gain·BDP in whole packets (>= min_cwnd); initial_cwnd while the model
  // is still empty.
  std::uint32_t target_cwnd(std::uint32_t gain_256) const;
  void enter_probe_bw(sim::Time now);

  BbrParams params_;
  std::uint32_t cwnd_;
  std::uint32_t packet_bytes_ = 500;  // last data-packet size observed

  Mode mode_ = Mode::kStartup;

  // Packet-timed rounds (the filter clock): one round per window's worth of
  // ACKs, delimited Linux/Vegas-style by the cumulative ACK passing the
  // highest sequence outstanding at the previous boundary.
  std::uint64_t round_ = 0;
  bool round_start_ = false;
  std::uint32_t next_round_seq_ = 0;
  std::uint32_t highest_sent_ = 0;

  // Delivery-rate anchor: the previous sample's (time, delivered_bytes).
  // Same-instant ACK bursts (compression collapses interval to zero) leave
  // the anchor alone so their bytes accumulate into the next sample.
  bool have_anchor_ = false;
  sim::Time anchor_time_;
  std::uint64_t anchor_delivered_bytes_ = 0;

  // Monotonic max-deque: bw descending, round ascending; front is the
  // windowed max, expired as rounds pass. The live samples are
  // bw_filter_[bw_head_, size()): expiry advances bw_head_, and a push
  // first erases the expired prefix once it is as long as the live part.
  // The vector so holds at most about twice the most samples ever live, and
  // allocates only to reach that, not as the window slides (a std::deque
  // allocates a chunk every 32 samples).
  std::vector<BwSample> bw_filter_;
  std::size_t bw_head_ = 0;

  // Windowed-min RTT filter and the ProbeRTT dwell.
  bool have_min_rtt_ = false;
  sim::Time min_rtt_;
  sim::Time min_rtt_stamp_;
  bool probe_rtt_done_valid_ = false;
  sim::Time probe_rtt_done_;
  std::uint32_t prior_cwnd_ = 0;  // saved on ProbeRTT entry, restored on exit

  // Startup full-pipe plateau detection.
  std::uint64_t full_bw_ = 0;
  std::uint32_t full_bw_count_ = 0;
  bool full_bw_reached_ = false;

  // ProbeBW gain cycle position.
  std::uint32_t cycle_idx_ = 0;
  sim::Time cycle_stamp_;
};

}  // namespace tcpdyn::tcp
