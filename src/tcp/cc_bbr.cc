#include "tcp/cc_bbr.h"

namespace tcpdyn::tcp {

namespace {
constexpr std::int64_t kNsPerSec = 1'000'000'000;
}  // namespace

BbrCc::BbrCc(BbrParams params)
    : params_(params),
      cwnd_(params.initial_cwnd >= 1u ? params.initial_cwnd : 1u) {
  if (params_.min_cwnd == 0) params_.min_cwnd = 1;
  if (params_.bw_window_rounds == 0) params_.bw_window_rounds = 1;
}

void BbrCc::on_sent(sim::Time /*now*/, std::uint32_t seq,
                    std::uint32_t size_bytes, bool /*retransmit*/) {
  if (seq + 1 > highest_sent_) highest_sent_ = seq + 1;
  if (size_bytes > 0) packet_bytes_ = size_bytes;
}

std::uint32_t BbrCc::pacing_gain() const {
  switch (mode_) {
    case Mode::kStartup: return kStartupGain;
    case Mode::kDrain: return kDrainGain;
    case Mode::kProbeBw: return kCycleGains[cycle_idx_];
    case Mode::kProbeRtt: return kGainUnit;
  }
  return kGainUnit;
}

std::uint32_t BbrCc::cwnd_gain() const {
  switch (mode_) {
    case Mode::kStartup: return kStartupGain;
    // Drain keeps the high cwnd gain (only the pacing rate drops), as Linux
    // does: the queue drains because packets leave slower than ACKs arrive.
    case Mode::kDrain: return kStartupGain;
    case Mode::kProbeBw: return kProbeBwCwndGain;
    case Mode::kProbeRtt: return kGainUnit;
  }
  return kGainUnit;
}

std::uint32_t BbrCc::bdp_packets() const {
  const std::uint64_t bw = bandwidth_Bps();
  if (bw == 0 || !have_min_rtt_ || packet_bytes_ == 0) return 0;
  const auto rtt_ns = static_cast<std::uint64_t>(min_rtt_.ns());
  const unsigned __int128 bdp_bytes =
      static_cast<unsigned __int128>(bw) * rtt_ns /
      static_cast<std::uint64_t>(kNsPerSec);
  // Round up: a fractional packet of pipe still needs a whole packet.
  const unsigned __int128 pkts =
      (bdp_bytes + packet_bytes_ - 1) / packet_bytes_;
  return pkts > 0xffffffffu ? 0xffffffffu : static_cast<std::uint32_t>(pkts);
}

std::uint32_t BbrCc::target_cwnd(std::uint32_t gain_256) const {
  const std::uint32_t bdp = bdp_packets();
  if (bdp == 0) {
    // No model yet: hold the initial window (growth resumes as soon as the
    // first bandwidth sample lands).
    return params_.initial_cwnd > params_.min_cwnd ? params_.initial_cwnd
                                                   : params_.min_cwnd;
  }
  const std::uint64_t scaled =
      (static_cast<std::uint64_t>(bdp) * gain_256 + (kGainUnit - 1)) /
      kGainUnit;
  const std::uint32_t target =
      scaled > 0xffffffffull ? 0xffffffffu
                             : static_cast<std::uint32_t>(scaled);
  return target > params_.min_cwnd ? target : params_.min_cwnd;
}

sim::Time BbrCc::pacing_interval() const {
  const std::uint64_t bw = bandwidth_Bps();
  if (bw == 0 || packet_bytes_ == 0) {
    return sim::Time::zero();  // no model yet: pure ACK clocking
  }
  // interval = packet_bytes / (gain/256 · bw) seconds, as integer ns:
  //   ns = bytes · 256 · 1e9 / (bw · gain)
  const unsigned __int128 num = static_cast<unsigned __int128>(packet_bytes_) *
                                kGainUnit *
                                static_cast<std::uint64_t>(kNsPerSec);
  const unsigned __int128 den =
      static_cast<unsigned __int128>(bw) * pacing_gain();
  const unsigned __int128 ns = num / den;
  constexpr unsigned __int128 kMaxNs = INT64_MAX;
  return sim::Time::nanoseconds(
      ns > kMaxNs ? INT64_MAX : static_cast<std::int64_t>(ns));
}

void BbrCc::on_ack(const AckContext& ctx) {
  const std::uint32_t cwnd_before = cwnd_;
  advance_round(ctx);
  sample_bandwidth(ctx);
  if (mode_ == Mode::kStartup && round_start_) check_full_bw();
  advance_state(ctx);
  update_min_rtt_and_probe_rtt(ctx);
  update_cwnd(ctx);
  if (cwnd_ != cwnd_before) notify(ctx.now, CcEvent::kAck);
}

void BbrCc::advance_round(const AckContext& ctx) {
  round_start_ = false;
  if (ctx.acked_to < next_round_seq_) return;
  ++round_;
  next_round_seq_ = highest_sent_;
  round_start_ = true;
  // Age out bandwidth samples that fell off the back of the window.
  while (bw_head_ < bw_filter_.size() &&
         bw_filter_[bw_head_].round + params_.bw_window_rounds <= round_) {
    ++bw_head_;
  }
}

void BbrCc::sample_bandwidth(const AckContext& ctx) {
  if (!have_anchor_) {
    have_anchor_ = true;
    anchor_time_ = ctx.now;
    anchor_delivered_bytes_ = ctx.delivered_bytes;
    return;
  }
  const std::int64_t interval_ns = (ctx.now - anchor_time_).ns();
  const std::uint64_t delta = ctx.delivered_bytes - anchor_delivered_bytes_;
  // Zero interval = ACK compression collapsed this arrival onto the anchor;
  // leave the anchor so the bytes accumulate into the next timed sample.
  if (interval_ns <= 0 || delta == 0) return;
  const auto bw = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(delta) *
      static_cast<std::uint64_t>(kNsPerSec) /
      static_cast<std::uint64_t>(interval_ns));
  while (bw_head_ < bw_filter_.size() && bw_filter_.back().bw_Bps <= bw) {
    bw_filter_.pop_back();
  }
  if (bw_head_ > 0 && bw_head_ >= bw_filter_.size() - bw_head_) {
    const auto dead = static_cast<std::ptrdiff_t>(bw_head_);
    bw_filter_.erase(bw_filter_.begin(), bw_filter_.begin() + dead);
    bw_head_ = 0;
  }
  bw_filter_.push_back(BwSample{round_, bw});
  anchor_time_ = ctx.now;
  anchor_delivered_bytes_ = ctx.delivered_bytes;
}

void BbrCc::check_full_bw() {
  const std::uint64_t bw = bandwidth_Bps();
  if (bw == 0) return;
  if (bw * 4 >= full_bw_ * 5) {
    // Still growing by >= 25%: reset the plateau counter.
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= params_.startup_full_bw_rounds) {
    full_bw_reached_ = true;
  }
}

void BbrCc::advance_state(const AckContext& ctx) {
  if (mode_ == Mode::kStartup && full_bw_reached_) {
    mode_ = Mode::kDrain;
  }
  if (mode_ == Mode::kDrain && ctx.inflight <= target_cwnd(kGainUnit)) {
    enter_probe_bw(ctx.now);  // the startup queue has drained
  }
  if (mode_ == Mode::kProbeBw && have_min_rtt_ &&
      ctx.now - cycle_stamp_ >= min_rtt_) {
    cycle_idx_ = (cycle_idx_ + 1) % kCycleLen;
    cycle_stamp_ = ctx.now;
  }
}

void BbrCc::enter_probe_bw(sim::Time now) {
  mode_ = Mode::kProbeBw;
  cycle_idx_ = kCycleStart;
  cycle_stamp_ = now;
}

void BbrCc::update_min_rtt_and_probe_rtt(const AckContext& ctx) {
  const bool expired =
      have_min_rtt_ && ctx.now - min_rtt_stamp_ > params_.min_rtt_window;
  if (ctx.rtt_valid && (!have_min_rtt_ || ctx.rtt <= min_rtt_ || expired)) {
    min_rtt_ = ctx.rtt;
    min_rtt_stamp_ = ctx.now;
    have_min_rtt_ = true;
  }
  if (mode_ != Mode::kProbeRtt && expired) {
    // The propagation floor went a full window without being touched: the
    // estimate may be stale (standing queue). Drain and re-measure.
    mode_ = Mode::kProbeRtt;
    prior_cwnd_ = cwnd_;
    probe_rtt_done_valid_ = false;
  }
  if (mode_ != Mode::kProbeRtt) return;
  if (!probe_rtt_done_valid_) {
    if (ctx.inflight <= params_.min_cwnd) {
      // Inflight reached the floor: hold here for the dwell time.
      probe_rtt_done_ = ctx.now + params_.probe_rtt_duration;
      probe_rtt_done_valid_ = true;
    }
  } else if (ctx.now >= probe_rtt_done_) {
    min_rtt_stamp_ = ctx.now;  // restart the 10 s window from the re-probe
    if (cwnd_ < prior_cwnd_) cwnd_ = prior_cwnd_;
    if (full_bw_reached_) {
      enter_probe_bw(ctx.now);
    } else {
      mode_ = Mode::kStartup;
    }
  }
}

void BbrCc::update_cwnd(const AckContext& ctx) {
  if (mode_ == Mode::kProbeRtt) {
    if (cwnd_ > params_.min_cwnd) cwnd_ = params_.min_cwnd;
  } else {
    const std::uint32_t target = target_cwnd(cwnd_gain());
    if (full_bw_reached_ || cwnd_ < target) {
      // +1 per ACKed packet toward the model cap. Before the pipe is full
      // this is exponential growth (the cap itself grows with the bandwidth
      // estimate each round); after, it refills toward the cap after losses
      // or ProbeRTT without ever overshooting it.
      const std::uint64_t grown =
          static_cast<std::uint64_t>(cwnd_) + ctx.newly_acked;
      cwnd_ = grown < target ? static_cast<std::uint32_t>(grown) : target;
    }
  }
  if (cwnd_ < params_.min_cwnd) cwnd_ = params_.min_cwnd;
  cwnd_ = capped_u32(cwnd_);
}

void BbrCc::on_dup_ack_loss(sim::Time now) {
  // Loss is noise, not a congestion signal, to a model-based controller:
  // the fast retransmit repairs the hole and the window stays model-driven.
  // Recorded for trace attribution only.
  notify(now, CcEvent::kFastRetransmit);
}

void BbrCc::on_ecn_echo(sim::Time now) {
  // Unlike loss, a CE mark IS a congestion signal — the AQM saw its queue
  // threshold crossed. BBRv1 ignores ECN; this takes the v2-flavored middle
  // road: trim the window by a quarter (gated to once per RTT by the
  // transport) without touching the bandwidth/RTT model, so pacing recovers
  // as soon as the marks stop.
  const std::uint32_t reduced = cwnd_ - cwnd_ / 4;
  cwnd_ = reduced > params_.min_cwnd ? reduced : params_.min_cwnd;
  notify(now, CcEvent::kEcnEcho);
}

void BbrCc::on_timeout(sim::Time now) {
  // An RTO means the ACK clock collapsed. Restart from the floor but keep
  // the long-lived model (bandwidth filter, min RTT) so pacing resumes at
  // the estimated rate. The delivery anchor would span the blackout and
  // yield a garbage sample — drop it. A ProbeRTT exit must not resurrect
  // the pre-timeout window either.
  cwnd_ = params_.min_cwnd;
  prior_cwnd_ = 0;
  have_anchor_ = false;
  notify(now, CcEvent::kTimeout);
}

}  // namespace tcpdyn::tcp
