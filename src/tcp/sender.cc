#include "tcp/sender.h"

#include <cassert>

#include "util/logging.h"

namespace tcpdyn::tcp {

WindowSender::WindowSender(sim::Simulator& sim, net::Host& host,
                           SenderParams params,
                           std::unique_ptr<CongestionControl> cc)
    : sim_(sim),
      host_(host),
      params_(params),
      cc_(std::move(cc)),
      rtt_(params.rtt),
      rto_timer_(sim),
      pacing_timer_(sim) {
  assert(cc_ != nullptr);
  cc_->bind(this, CcEnv{params_.maxwnd, params_.dupack_threshold});
  if (cc_->wants_sack()) scoreboard_ = std::make_unique<SackScoreboard>();
  host_.register_endpoint(params_.conn, net::PacketKind::kAck, this);
}

const SackScoreboard& WindowSender::scoreboard() const {
  static const SackScoreboard kEmpty;
  return scoreboard_ ? *scoreboard_ : kEmpty;
}

void WindowSender::start(sim::Time at) {
  assert(at >= sim_.now());
  sim_.schedule(at - sim_.now(), [this] { start_now(); });
}

void WindowSender::start_now() {
  started_ = true;
  next_pacing_slot_ = sim_.now();
  send_available();
}

void WindowSender::stop(sim::Time at) {
  assert(at >= sim_.now());
  sim_.schedule(at - sim_.now(), [this] {
    stopped_ = true;
    rto_timer_.cancel();
    pacing_timer_.cancel();
  });
}

void WindowSender::deliver(const net::Packet& ack) {
  assert(net::is_ack(ack));
  if (stopped_) return;
  ++counters_.acks_received;
  if (params_.ecn && (ack.ecn & net::kEcnEce) != 0 &&
      ack.ack >= ecn_react_until_) {
    // ECN echo, and the window sent at the previous reduction has drained:
    // react once, then hold until a full new window is acknowledged.
    ecn_react_until_ = snd_nxt_ > ack.ack + 1 ? snd_nxt_ : ack.ack + 1;
    cwr_pending_ = true;
    ++counters_.ecn_reductions;
    cc_->on_ecn_echo(sim_.now());
  }
  const bool sack_mode = cc_->wants_sack();
  if (sack_mode) {
    for (std::uint8_t i = 0; i < ack.sack_count; ++i) {
      scoreboard_->mark(ack.sack[i].start, ack.sack[i].end);
    }
  }
  if (ack.ack > snd_una_) {
    AckContext ctx;
    ctx.now = sim_.now();
    ctx.newly_acked = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    ctx.acked_to = snd_una_;
    dupacks_ = 0;
    // RTT sample: the timed packet is covered and was never retransmitted
    // (timing_ is cleared on any loss, implementing Karn's rule).
    if (timing_ && ack.ack > timed_seq_) {
      const sim::Time rtt = sim_.now() - timed_at_;
      rtt_.sample(rtt);
      timing_ = false;
      ctx.rtt_valid = true;
      ctx.rtt = rtt;
      if (hooks_ && hooks_->on_rtt_sample) hooks_->on_rtt_sample(sim_.now(), rtt);
    }
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    // Delivery accounting for model-based controllers: with an infinite
    // stream and go-back-N, the cumulative ACK is the delivery count.
    ctx.delivered = snd_una_;
    ctx.delivered_bytes =
        static_cast<std::uint64_t>(snd_una_) * params_.data_bytes;
    ctx.inflight = outstanding();
    // Restart the retransmission timer for the remaining outstanding data.
    rto_timer_.cancel();
    if (outstanding() > 0) arm_rto();
    if (sack_mode) {
      scoreboard_->ack_to(snd_una_);
      if (in_sack_recovery_) {
        ctx.in_recovery = true;
        if (snd_una_ >= recover_) {
          // Full ACK: the recovery point is covered; recovery ends.
          in_sack_recovery_ = false;
          scoreboard_->clear();
          sack_retx_high_ = 0;
        } else {
          ctx.partial = true;
        }
      }
    }
    cc_->on_ack(ctx);
    if (ctx.partial && snd_una_ >= sack_retx_high_) {
      // NewReno partial ACK (RFC 6582): the ACK exposes the next hole;
      // retransmit it immediately instead of waiting for three more
      // duplicates (unless scoreboard-driven recovery already resent it).
      send_packet(snd_una_);
      sack_retx_high_ = snd_una_ + 1;
    }
    send_available();
  } else if (ack.ack == snd_una_ && outstanding() > 0) {
    // Duplicate ACK while data is outstanding.
    ++dupacks_;
    if (dupacks_ == params_.dupack_threshold &&
        !(sack_mode && in_sack_recovery_)) {
      loss_detected(LossSignal::kDupAcks);
    } else {
      cc_->on_dup_ack(sim_.now());
      if (sack_mode && in_sack_recovery_) {
        // Each further duplicate signals a departure; spend it on the next
        // scoreboard hole so recovery repairs multiple losses per RTT.
        retransmit_next_hole();
      }
      send_available();  // Reno-style inflation may open the window
    }
  }
  // else: stale ACK below snd_una_, ignore.
}

sim::Time WindowSender::effective_pacing_interval() const {
  const sim::Time from_cc = cc_->pacing_interval();
  return from_cc > params_.pacing_interval ? from_cc
                                           : params_.pacing_interval;
}

void WindowSender::send_available() {
  if (!started_ || stopped_) return;
  const std::uint32_t wnd = window();
  const sim::Time pacing = effective_pacing_interval();
  while (snd_nxt_ < snd_una_ + wnd) {
    if (pacing > sim::Time::zero() && sim_.now() < next_pacing_slot_) {
      schedule_paced_send();
      return;
    }
    send_packet(snd_nxt_);
    ++snd_nxt_;
    if (pacing > sim::Time::zero()) {
      next_pacing_slot_ = sim_.now() + pacing;
    }
  }
}

void WindowSender::schedule_paced_send() {
  // A pending timer is only good if it was armed for the CURRENT slot.
  // ACK-clocked sends (and controllers whose pacing_interval changes
  // mid-flight, e.g. BBR's gain cycling) advance next_pacing_slot_ while a
  // timer armed for the old slot is still outstanding; keeping it would
  // leave a stale no-op wakeup firing every interval. rearm_at is exactly
  // that dedup: no-op when a shot for this slot is pending, cancel+re-arm
  // otherwise.
  pacing_timer_.rearm_at(next_pacing_slot_, [this] { send_available(); });
}

void WindowSender::send_packet(std::uint32_t seq) {
  net::Packet pkt;
  pkt.uid = net::make_packet_uid(params_.conn, net::PacketKind::kData,
                                 next_uid_++);
  pkt.conn = params_.conn;
  pkt.kind = net::PacketKind::kData;
  pkt.seq = seq;
  pkt.size_bytes = params_.data_bytes;
  pkt.src = params_.self;
  pkt.dst = params_.peer;
  pkt.created = sim_.now();
  pkt.retransmit = seq < high_water_;
  if (params_.ecn) {
    pkt.ecn = net::kEcnEct;
    if (cwr_pending_) {
      pkt.ecn |= net::kEcnCwr;
      cwr_pending_ = false;
    }
  }

  ++counters_.data_sent;
  if (pkt.retransmit) ++counters_.retransmits;
  high_water_ = std::max(high_water_, seq + 1);

  // BSD times one packet at a time; never a retransmission (Karn).
  if (!timing_ && !pkt.retransmit) {
    timing_ = true;
    timed_seq_ = seq;
    timed_at_ = sim_.now();
  }
  if (!rto_timer_.pending()) arm_rto();
  cc_->on_sent(sim_.now(), seq, pkt.size_bytes, pkt.retransmit);
  if (hooks_ && hooks_->on_send) hooks_->on_send(sim_.now(), pkt);
  host_.send(std::move(pkt));
}

void WindowSender::retransmit_next_hole() {
  if (scoreboard_->empty()) return;
  const std::uint32_t from =
      snd_una_ > sack_retx_high_ ? snd_una_ : sack_retx_high_;
  const auto hole = scoreboard_->next_hole(from);
  if (!hole || *hole >= snd_nxt_) return;
  send_packet(*hole);
  sack_retx_high_ = *hole + 1;
}

void WindowSender::loss_detected(LossSignal signal) {
  if (signal == LossSignal::kDupAcks) {
    ++counters_.dup_ack_losses;
  } else {
    ++counters_.timeout_losses;
    dupacks_ = 0;
    rtt_.backoff();
  }
  timing_ = false;  // Karn: abandon the in-progress RTT measurement
  if (hooks_ && hooks_->on_loss_detected) hooks_->on_loss_detected(sim_.now(), signal);
  if (signal == LossSignal::kDupAcks) {
    cc_->on_dup_ack_loss(sim_.now());
    if (cc_->wants_sack()) {
      in_sack_recovery_ = true;
      recover_ = snd_nxt_;  // RFC 6582 recovery point
      sack_retx_high_ = snd_una_ + 1;  // the fast retransmit below
    }
  } else {
    cc_->on_timeout(sim_.now());
    // Timeout abandons scoreboard recovery: go-back-N resends everything.
    in_sack_recovery_ = false;
    if (scoreboard_) scoreboard_->clear();
    sack_retx_high_ = 0;
  }
  rto_timer_.cancel();
  if (signal == LossSignal::kTimeout) {
    // Timeout: go-back-N from the first unacknowledged packet.
    snd_nxt_ = snd_una_;
    send_available();
  } else {
    // Dup-ACK (fast) retransmit: resend exactly the first unacknowledged
    // segment and leave snd_nxt where it is, as BSD 4.3-Tahoe does
    // (tcp_input.c restores snd_nxt after the forced retransmission).
    // Re-sending the whole window here would make the receiver emit a
    // duplicate ACK per already-buffered packet, triggering spurious fast
    // retransmits in a feedback loop.
    send_packet(snd_una_);
    send_available();
  }
}

void WindowSender::arm_rto() {
  // Timer::arm replaces any pending shot, so the manual cancel is gone.
  rto_timer_.arm(rtt_.rto(), [this] {
    if (outstanding() > 0) loss_detected(LossSignal::kTimeout);
  });
}

}  // namespace tcpdyn::tcp
