#include "net/queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace tcpdyn::net {

// ------------------------------------------------------------- drop-tail

EnqueueResult DropTailQueue::offer(Packet pkt, bool protect_front) {
  count_arrival(pkt);
  EnqueueResult result;
  if (!limit_.is_infinite() && packets_.size() >= *limit_.packets) {
    if (!random_drop_) {
      count_drop(pkt);
      result.accepted = false;
      result.dropped = std::move(pkt);
      return result;
    }
    // Random-drop: pick a victim uniformly among the current occupants plus
    // the arrival itself, optionally sparing the in-service head packet.
    const std::size_t first = protect_front && !packets_.empty() ? 1 : 0;
    const std::size_t candidates = packets_.size() - first + 1;  // + arrival
    const std::size_t pick =
        first + static_cast<std::size_t>(rng_.next_below(candidates));
    if (pick >= packets_.size()) {
      // The arrival itself is the victim.
      count_drop(pkt);
      result.accepted = false;
      result.dropped = std::move(pkt);
      return result;
    }
    Packet victim = packets_.erase(pick);
    bytes_ -= victim.size_bytes;
    count_drop(victim);
    result.dropped = std::move(victim);
    result.cause = DropCause::kQueueVictim;
    // Fall through: the arrival is admitted into the freed slot.
  }
  bytes_ += pkt.size_bytes;
  packets_.push_back(pkt);
  note_length(packets_.size());
  return result;
}

std::vector<Packet> DropTailQueue::flush() {
  std::vector<Packet> flushed;
  flushed.reserve(packets_.size());
  while (!packets_.empty()) {
    Packet pkt = packets_.pop_front();
    bytes_ -= pkt.size_bytes;
    count_drop(pkt);
    flushed.push_back(pkt);
  }
  return flushed;
}

std::optional<Packet> DropTailQueue::pop() {
  if (packets_.empty()) return std::nullopt;
  Packet pkt = packets_.pop_front();
  bytes_ -= pkt.size_bytes;
  count_departure(pkt);
  return pkt;
}

// ------------------------------------------------------------------- RED

EnqueueResult RedQueue::offer(Packet pkt, bool /*protect_front*/) {
  count_arrival(pkt);
  EnqueueResult result;

  // EWMA update from the pre-admission instantaneous length, once per
  // arrival (see the header's determinism notes: no idle decay).
  const std::int64_t inst =
      static_cast<std::int64_t>(packets_.size()) << 16;
  avg_ += (inst - avg_) >> params_.wq_shift;

  const auto reject = [&](DropCause cause) {
    count_drop(pkt);
    result.accepted = false;
    result.dropped = std::move(pkt);
    result.cause = cause;
  };

  // A physically full buffer tail-drops regardless of the average.
  if (!limit_.is_infinite() && packets_.size() >= *limit_.packets) {
    count_ = 0;
    reject(DropCause::kQueueTail);
    return result;
  }

  const std::int64_t min_fixed = static_cast<std::int64_t>(params_.min_th)
                                 << 16;
  const std::int64_t max_fixed = static_cast<std::int64_t>(params_.max_th)
                                 << 16;
  if (avg_ >= max_fixed) {
    // Forced early drop: the average itself exceeds the upper threshold.
    count_ = 0;
    reject(DropCause::kQueueEarly);
    return result;
  }
  if (avg_ >= min_fixed) {
    ++count_;
    // p_b = max_p * (avg - min_th) / (max_th - min_th), 2^16 fixed point.
    const std::int64_t p_b =
        static_cast<std::int64_t>(params_.max_p_65536) * (avg_ - min_fixed) /
        (max_fixed - min_fixed);
    // Count correction: p_a = p_b / (1 - count * p_b); certain once the
    // denominator goes non-positive.
    const std::int64_t denom = 65536 - count_ * p_b;
    const std::int64_t p_a =
        denom <= 0 ? 65536 : std::min<std::int64_t>(65536, p_b * 65536 / denom);
    if (static_cast<std::int64_t>(rng_.next_below(65536)) < p_a) {
      count_ = 0;
      if (params_.ecn && (pkt.ecn & kEcnEct) != 0) {
        // Mark instead of dropping: the packet is admitted with CE set.
        pkt.ecn |= kEcnCe;
        count_mark(pkt);
        result.marked = true;
      } else {
        reject(DropCause::kQueueEarly);
        return result;
      }
    }
  } else {
    count_ = 0;
  }

  bytes_ += pkt.size_bytes;
  packets_.push_back(pkt);
  note_length(packets_.size());
  return result;
}

std::vector<Packet> RedQueue::flush() {
  std::vector<Packet> flushed;
  flushed.reserve(packets_.size());
  while (!packets_.empty()) {
    Packet pkt = packets_.pop_front();
    bytes_ -= pkt.size_bytes;
    count_drop(pkt);
    flushed.push_back(pkt);
  }
  return flushed;
}

std::optional<Packet> RedQueue::pop() {
  if (packets_.empty()) return std::nullopt;
  Packet pkt = packets_.pop_front();
  bytes_ -= pkt.size_bytes;
  count_departure(pkt);
  return pkt;
}

// ------------------------------------------------------------------- DRR

void DrrQueue::commit_head() {
  if (head_committed_ || total_packets_ == 0) return;
  for (;;) {
    Flow& f = flows_[front_];
    assert(f.packets > 0 && "active flow with no packets");
    if (f.deficit >=
        static_cast<std::int64_t>(nodes_[f.head].pkt.size_bytes)) {
      head_committed_ = true;
      return;
    }
    // Exactly one quantum per visit (front_credited_ guards repeat passes
    // over the same front flow between rotations — crediting on every
    // commit would turn DRR into per-flow FIFO exhaustion). A flow whose
    // head still does not fit yields the rest of the round to the others.
    if (!front_credited_) {
      front_credited_ = true;
      f.deficit += static_cast<std::int64_t>(params_.quantum_bytes);
      continue;
    }
    front_ = f.next;  // the front flow moves to the back of the round
    front_credited_ = false;
  }
}

DrrQueue::Slot DrrQueue::steal_victim(std::uint64_t key, Slot own) const {
  // The arrival's flow counts with the arrival in it. The committed head —
  // the front packet of the round's front flow, which the port may already
  // be transmitting — is never the victim, so that flow competes only with
  // the packets behind its head. Ties go to the smallest flow key.
  Slot victim = kNil;
  std::size_t victim_size = (own == kNil ? 0 : flows_[own].packets) + 1;
  std::uint64_t victim_key = key;
  if (front_ == kNil) return victim;
  Slot s = front_;
  do {
    const Flow& f = flows_[s];
    const bool lone_head = head_committed_ && s == front_ && f.packets == 1;
    if (s != own && !lone_head &&
        (f.packets > victim_size ||
         (f.packets == victim_size && f.key < victim_key))) {
      victim = s;
      victim_size = f.packets;
      victim_key = f.key;
    }
    s = f.next;
  } while (s != front_);
  return victim;
}

DrrQueue::Slot DrrQueue::open_flow(std::uint64_t key) {
  Slot s = free_flow_;
  if (s != kNil) {
    free_flow_ = flows_[s].next;
  } else {
    if (flows_.size() >= kNil) {
      throw std::length_error("DrrQueue: too many flows");
    }
    s = static_cast<Slot>(flows_.size());
    if (flows_.empty()) flows_.reserve(PacketRing::kInitialCapacity);
    flows_.emplace_back();
  }
  Flow& f = flows_[s];
  f = Flow{};
  f.key = key;
  if (front_ == kNil) {
    front_ = f.prev = f.next = s;
  } else {
    // Last in the round: just behind the front.
    const Slot back = flows_[front_].prev;
    f.prev = back;
    f.next = front_;
    flows_[back].next = s;
    flows_[front_].prev = s;
  }
  index_.insert_or_assign(key, s);
  return s;
}

void DrrQueue::close_flow(Slot s) {
  Flow& f = flows_[s];
  assert(f.packets == 0);
  if (front_ == s) {
    // The next flow up starts a fresh (uncredited) visit.
    front_ = f.next == s ? kNil : f.next;
    front_credited_ = false;
  }
  flows_[f.prev].next = f.next;
  flows_[f.next].prev = f.prev;
  index_.erase(f.key);
  f.next = free_flow_;
  free_flow_ = s;
}

void DrrQueue::push_packet(Slot s, const Packet& pkt) {
  Slot n = free_node_;
  if (n != kNil) {
    free_node_ = nodes_[n].newer;
  } else {
    if (nodes_.size() >= kNil) {
      throw std::length_error("DrrQueue: too many packets");
    }
    n = static_cast<Slot>(nodes_.size());
    // Start where a FIFO's ring starts, then double.
    if (nodes_.empty()) nodes_.reserve(PacketRing::kInitialCapacity);
    nodes_.emplace_back();
  }
  Flow& f = flows_[s];
  nodes_[n] = {pkt, f.tail, kNil};
  if (f.tail != kNil) {
    nodes_[f.tail].newer = n;
  } else {
    f.head = n;
  }
  f.tail = n;
  ++f.packets;
}

Packet DrrQueue::pop_oldest(Slot s) {
  Flow& f = flows_[s];
  const Slot n = f.head;
  f.head = nodes_[n].newer;
  if (f.head != kNil) {
    nodes_[f.head].older = kNil;
  } else {
    f.tail = kNil;
  }
  --f.packets;
  nodes_[n].newer = free_node_;
  free_node_ = n;
  return nodes_[n].pkt;
}

Packet DrrQueue::pop_newest(Slot s) {
  Flow& f = flows_[s];
  const Slot n = f.tail;
  f.tail = nodes_[n].older;
  if (f.tail != kNil) {
    nodes_[f.tail].newer = kNil;
  } else {
    f.head = kNil;
  }
  --f.packets;
  nodes_[n].newer = free_node_;
  free_node_ = n;
  return nodes_[n].pkt;
}

EnqueueResult DrrQueue::offer(Packet pkt, bool /*protect_front*/) {
  count_arrival(pkt);
  EnqueueResult result;
  const std::uint64_t key = conn_kind_key(pkt.conn, pkt.kind);
  const Slot* found = index_.find(key);
  Slot own = found != nullptr ? *found : kNil;
  if (!limit_.is_infinite() && total_packets_ >= *limit_.packets) {
    // Buffer stealing (McKenney): the arrival is admitted and the newest
    // packet of the longest flow is evicted instead, so one heavy flow
    // cannot monopolize the shared buffer and starve the others.
    const Slot victim = steal_victim(key, own);
    if (victim == kNil) {
      // The newest packet of the arrival's own flow is the arrival: report
      // a plain full-buffer arrival drop (the packet was never queued),
      // like the random-drop arrival-victim path.
      count_drop(pkt);
      result.accepted = false;
      result.cause = DropCause::kQueueTail;
      result.dropped = pkt;
      note_length(total_packets_);
      return result;
    }
    Packet evicted = pop_newest(victim);
    bytes_ -= evicted.size_bytes;
    --total_packets_;
    if (flows_[victim].packets == 0) close_flow(victim);
    count_drop(evicted);
    result.cause = DropCause::kQueueVictim;
    result.dropped = evicted;
  }
  if (own == kNil) own = open_flow(key);  // the flow becomes active
  push_packet(own, pkt);
  bytes_ += pkt.size_bytes;
  ++total_packets_;
  note_length(total_packets_);
  commit_head();
  return result;
}

const Packet& DrrQueue::front() const {
  assert(head_committed_ && "front() on an empty DRR queue");
  return nodes_[flows_[front_].head].pkt;
}

std::optional<Packet> DrrQueue::pop() {
  if (total_packets_ == 0) return std::nullopt;
  commit_head();
  const Slot s = front_;
  Packet pkt = pop_oldest(s);
  flows_[s].deficit -= static_cast<std::int64_t>(pkt.size_bytes);
  bytes_ -= pkt.size_bytes;
  --total_packets_;
  head_committed_ = false;
  // An emptied flow leaves the round and forfeits its leftover deficit.
  if (flows_[s].packets == 0) close_flow(s);
  count_departure(pkt);
  commit_head();
  return pkt;
}

std::vector<Packet> DrrQueue::flush() {
  std::vector<Packet> flushed;
  flushed.reserve(total_packets_);
  // Deterministic drain order: ascending flow key, FIFO within each flow.
  std::vector<std::pair<std::uint64_t, Slot>> order;
  order.reserve(index_.size());
  if (front_ != kNil) {
    Slot s = front_;
    do {
      order.emplace_back(flows_[s].key, s);
      s = flows_[s].next;
    } while (s != front_);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [key, s] : order) {
    for (Slot n = flows_[s].head; n != kNil; n = nodes_[n].newer) {
      const Packet& pkt = nodes_[n].pkt;
      bytes_ -= pkt.size_bytes;
      count_drop(pkt);
      flushed.push_back(pkt);
    }
    index_.erase(key);
  }
  // Every slot is free again; the pools keep their capacity.
  nodes_.clear();
  flows_.clear();
  free_node_ = free_flow_ = front_ = kNil;
  head_committed_ = false;
  front_credited_ = false;
  total_packets_ = 0;
  return flushed;
}

// ------------------------------------------------------- selection surface

std::unique_ptr<QueueDiscipline> make_qdisc(const QdiscConfig& config,
                                            std::uint64_t seed) {
  switch (config.kind) {
    case QdiscKind::kDropTail:
    case QdiscKind::kRandomDrop:
      return std::make_unique<DropTailQueue>(
          config.limit, config.kind == QdiscKind::kRandomDrop, seed);
    case QdiscKind::kRed:
      return std::make_unique<RedQueue>(config.limit, config.red, seed);
    case QdiscKind::kDrr:
      return std::make_unique<DrrQueue>(config.limit, config.drr);
  }
  return nullptr;
}

const util::Registry<QdiscChoice>& qdisc_registry() {
  static const util::Registry<QdiscChoice> reg = [] {
    util::Registry<QdiscChoice> r;
    r.add("droptail", {QdiscKind::kDropTail, false},
          "drop arrivals when the buffer is full (paper default)")
        .add("randomdrop", {QdiscKind::kRandomDrop, false},
             "discard a uniformly chosen occupant, admit the arrival")
        .add("red", {QdiscKind::kRed, false},
             "Random Early Detection on the EWMA queue length")
        .add("red-ecn", {QdiscKind::kRed, true},
             "RED that ECN-marks ECT packets instead of dropping")
        .add("drr", {QdiscKind::kDrr, false},
             "Deficit Round Robin fair queueing, one FIFO per flow");
    return r;
  }();
  return reg;
}

std::optional<QdiscKind> parse_qdisc(std::string_view s, bool* ecn) {
  if (ecn != nullptr) *ecn = false;
  const QdiscChoice* choice = qdisc_registry().find(s);
  if (choice == nullptr) return std::nullopt;
  if (ecn != nullptr) *ecn = choice->ecn;
  return choice->kind;
}

const char* to_string(QdiscKind kind) {
  switch (kind) {
    case QdiscKind::kDropTail: return "droptail";
    case QdiscKind::kRandomDrop: return "randomdrop";
    case QdiscKind::kRed: return "red";
    case QdiscKind::kDrr: return "drr";
  }
  return "?";
}

}  // namespace tcpdyn::net
