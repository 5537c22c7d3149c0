#include "net/port.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcpdyn::net {

OutputPort::OutputPort(sim::Simulator& sim, std::string name,
                       std::int64_t bits_per_second,
                       sim::Time propagation_delay, const QdiscConfig& qdisc,
                       std::uint64_t drop_seed)
    : sim_(sim),
      name_(std::move(name)),
      bits_per_second_(bits_per_second),
      propagation_delay_(propagation_delay),
      queue_(make_qdisc(qdisc, drop_seed)) {
  assert(bits_per_second > 0);
}

void OutputPort::enqueue(Packet pkt) {
  if (!up_ && down_policy_ == DownPolicy::kDiscard) {
    // Down link, discard policy: the arrival is rejected before the buffer
    // is consulted. Still an arrival + drop to the queue's conservation law.
    queue_->count_rejected(pkt);
    ++fault_counters_.drops_down;
    fault_counters_.bytes_drops_down += pkt.size_bytes;
    if (observer_ != nullptr) {
      observer_->on_drop(sim_.now(), *this, pkt, DropCause::kDownArrival);
    }
    if (on_drop) on_drop(sim_.now(), pkt);
    return;
  }
  // The head packet is in service on the wire while transmitting_ and must
  // not be selected as a random-drop victim. `pkt` is copied into the queue
  // (Packet is a small trivially-copyable value) so the observer can still
  // see the admitted arrival below.
  const EnqueueResult result = queue_->offer(pkt, transmitting_);
  // Mirror the discipline's CE mark onto the local copy so observers see
  // the packet exactly as it was admitted.
  if (result.marked) pkt.ecn |= kEcnCe;
  if (observer_ != nullptr) {
    // The discipline names which drop branch fired: a rejected arrival
    // (queue-tail, RED early) or an evicted occupant (random-drop victim).
    if (result.dropped.has_value()) {
      observer_->on_drop(sim_.now(), *this, *result.dropped, result.cause);
    }
    if (result.marked) observer_->on_mark(sim_.now(), *this, pkt);
    if (result.accepted) observer_->on_enqueue(sim_.now(), *this, pkt);
  }
  if (result.dropped.has_value() && on_drop) {
    on_drop(sim_.now(), *result.dropped);
  }
  if (result.accepted && !result.dropped.has_value() && on_queue_change) {
    on_queue_change(sim_.now(), queue_->length());
  }
  if (up_ && !transmitting_ && !queue_->empty()) start_transmission();
}

void OutputPort::start_transmission() {
  assert(up_);
  assert(!queue_->empty());
  transmitting_ = true;
  const Packet& head = queue_->front();
  const sim::Time now = sim_.now();
  tx_started_ = now;
  if (record_busy_) {
    // Extend the previous busy interval when transmission is back-to-back,
    // otherwise open a new one.
    if (!busy_.empty() && busy_.back().end == now) {
      busy_.back().end = sim::Time::max();
    } else {
      busy_.push_back({now, sim::Time::max()});
    }
  }
  if (on_depart) on_depart(now, head);
  auto finish = [this] { finish_transmission(); };
  static_assert(sim::Scheduler::Action::fits<decltype(finish)>,
                "transmission-complete event must not heap-allocate");
  tx_done_ = sim_.schedule(transmission_time(head), std::move(finish));
}

void OutputPort::finish_transmission() {
  assert(transmitting_);
  transmitting_ = false;
  const sim::Time now = sim_.now();
  if (record_busy_) busy_.back().end = now;
  served_tx_ns_ += (now - tx_started_).ns();
  std::optional<Packet> pkt = queue_->pop();
  assert(pkt.has_value());
  if (observer_ != nullptr) observer_->on_dequeue(now, *this, *pkt);
  if (on_queue_change) on_queue_change(now, queue_->length());
  bool lost = false;
  sim::Time extra = sim::Time::zero();
  if (impair_ != nullptr) {
    // One model consultation per serialized packet, in serialization order:
    // this fixes the RNG stream position independent of everything else.
    const WireDecision d = impair_->next();
    if (d.lost) {
      lost = true;
      ++fault_counters_.drops_wire;
      fault_counters_.bytes_drops_wire += pkt->size_bytes;
      if (observer_ != nullptr) observer_->on_drop(now, *this, *pkt, d.cause);
      if (on_drop) on_drop(now, *pkt);
    } else {
      extra = d.extra_delay;
    }
  }
  if (!lost && peer_ != nullptr) {
    if (cross_handoff_) {
      // Shard-boundary link: the engine carries the packet (and its ordering
      // key, drawn from this shard's active context) to the peer shard.
      cross_handoff_(*this, now + propagation_delay_ + extra, std::move(*pkt));
    } else {
      // Propagation: delivery after the fixed delay plus any reorder jitter.
      // Capture the packet by value; the port does not track in-flight
      // packets.
      auto deliver = [peer = peer_, p = std::move(*pkt)]() mutable {
        peer->receive(std::move(p));
      };
      static_assert(sim::Scheduler::Action::fits<decltype(deliver)>,
                    "propagation event (pointer + Packet) must stay inline");
      sim_.schedule_handoff(propagation_delay_ + extra, peer_->det_context(),
                            std::move(deliver));
    }
  }
  if (!queue_->empty()) start_transmission();
}

void OutputPort::set_link_up(bool up) {
  dynamic_ = true;
  if (up == up_) return;
  up_ = up;
  const sim::Time now = sim_.now();
  if (!up) {
    if (transmitting_) {
      // Abort the in-flight serialization: the partial frame is lost work.
      // The head packet stays buffered and re-serializes from scratch on
      // link-up (under kDrain); the flush below removes it under kDiscard.
      tx_done_.cancel();
      transmitting_ = false;
      if (record_busy_) busy_.back().end = now;
      aborted_tx_ns_ += (now - tx_started_).ns();
    }
    if (down_policy_ == DownPolicy::kDiscard) {
      std::vector<Packet> flushed = queue_->flush();
      for (const Packet& p : flushed) {
        ++fault_counters_.drops_down;
        fault_counters_.bytes_drops_down += p.size_bytes;
        if (observer_ != nullptr) {
          observer_->on_drop(now, *this, p, DropCause::kDownFlush);
        }
        if (on_drop) on_drop(now, p);
      }
      if (!flushed.empty() && on_queue_change) on_queue_change(now, 0);
    }
  } else if (!queue_->empty()) {
    start_transmission();
  }
}

void OutputPort::set_rate(std::int64_t bits_per_second) {
  assert(bits_per_second > 0);
  dynamic_ = true;
  if (bits_per_second == bits_per_second_) return;
  if (transmitting_) {
    // Re-arm the in-flight serialization: the fraction of the frame already
    // on the wire stays sent; the remainder drains at the new rate. Exact
    // integer proportion (128-bit product) so repeated changes never drift.
    const Packet& head = queue_->front();
    const std::int64_t old_total = transmission_time(head).ns();
    const std::int64_t elapsed = (sim_.now() - tx_started_).ns();
    const std::int64_t old_remaining = std::max<std::int64_t>(
        0, old_total - elapsed);
    const std::int64_t new_total =
        sim::Time::transmission(head.size_bytes, bits_per_second).ns();
    const std::int64_t new_remaining =
        old_total > 0
            ? static_cast<std::int64_t>(
                  static_cast<__int128>(new_total) * old_remaining / old_total)
            : 0;
    tx_done_.cancel();
    auto finish = [this] { finish_transmission(); };
    static_assert(sim::Scheduler::Action::fits<decltype(finish)>,
                  "transmission-complete event must not heap-allocate");
    tx_done_ =
        sim_.schedule(sim::Time::nanoseconds(new_remaining), std::move(finish));
  }
  bits_per_second_ = bits_per_second;
}

void OutputPort::set_propagation_delay(sim::Time delay) {
  dynamic_ = true;
  propagation_delay_ = delay;
}

void OutputPort::attach_impairment(const Impairment& model,
                                   std::uint64_t seed) {
  dynamic_ = true;
  impair_ = std::make_unique<ImpairmentState>(model, seed);
}

sim::Time OutputPort::busy_in(sim::Time from, sim::Time to) const {
  assert(record_busy_ && "call enable_busy_record() before traffic flows");
  sim::Time total = sim::Time::zero();
  for (const auto& iv : busy_) {
    const sim::Time start = std::max(iv.start, from);
    const sim::Time end = std::min(iv.end == sim::Time::max() ? sim_.now() : iv.end, to);
    if (end > start) total += end - start;
  }
  return total;
}

double OutputPort::utilization(sim::Time from, sim::Time to) const {
  if (to <= from) return 0.0;
  return static_cast<double>(busy_in(from, to).ns()) /
         static_cast<double>((to - from).ns());
}

}  // namespace tcpdyn::net
