#include "net/queue.h"

#include <algorithm>
#include <cassert>

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
    Flow& f = flows_[round_.front()];
    assert(!f.packets.empty() && "active flow with no packets");
    if (f.deficit >=
        static_cast<std::int64_t>(f.packets.front().size_bytes)) {
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
    round_.push_back(round_.front());
    round_.pop_front();
    front_credited_ = false;
  }
}

EnqueueResult DrrQueue::offer(Packet pkt, bool /*protect_front*/) {
  count_arrival(pkt);
  EnqueueResult result;
  const std::uint64_t key = flow_key(pkt);
  Flow& f = flows_[key];
  if (f.packets.empty()) round_.push_back(key);  // flow becomes active
  bytes_ += pkt.size_bytes;
  f.packets.push_back(std::move(pkt));
  ++total_packets_;
  if (!limit_.is_infinite() && total_packets_ > *limit_.packets) {
    // Buffer stealing (McKenney): the arrival is admitted and the newest
    // packet of the longest flow is evicted instead, so one heavy flow
    // cannot monopolize the shared buffer and starve the others. The
    // committed head — the front packet of the round's front flow, which
    // the port may already be transmitting — is never the victim; the
    // arrival itself is always a legal fallback, so a victim always
    // exists. Ties go to the smallest flow key (deterministic; no RNG).
    const std::uint64_t front_key = round_.front();
    std::uint64_t victim_key = key;
    std::size_t victim_size = 0;
    for (const auto& [k, fl] : flows_) {
      if (fl.packets.empty()) continue;
      if (head_committed_ && k == front_key && fl.packets.size() == 1) {
        continue;  // the lone packet is the committed head
      }
      if (fl.packets.size() > victim_size) {
        victim_size = fl.packets.size();
        victim_key = k;
      }
    }
    Flow& v = flows_[victim_key];
    Packet victim = std::move(v.packets.back());
    v.packets.pop_back();
    bytes_ -= victim.size_bytes;
    --total_packets_;
    // The newest packet of flow `key` is the arrival we just pushed, so a
    // victim from the arrival's own flow is the arrival itself — report it
    // as a plain full-buffer arrival drop (the packet was never queued),
    // like the random-drop arrival-victim path.
    if (victim_key == key) {
      result.accepted = false;
      result.cause = DropCause::kQueueTail;
    } else {
      result.cause = DropCause::kQueueVictim;
    }
    if (v.packets.empty()) {
      v.deficit = 0;
      const auto it = std::find(round_.begin(), round_.end(), victim_key);
      assert(it != round_.end() && "victim flow missing from round");
      if (it == round_.begin()) front_credited_ = false;
      round_.erase(it);
    }
    count_drop(victim);
    result.dropped = std::move(victim);
  }
  note_length(total_packets_);
  commit_head();
  return result;
}

const Packet& DrrQueue::front() const {
  assert(head_committed_ && "front() on an empty DRR queue");
  return flows_.at(round_.front()).packets.front();
}

std::optional<Packet> DrrQueue::pop() {
  if (total_packets_ == 0) return std::nullopt;
  commit_head();
  Flow& f = flows_[round_.front()];
  Packet pkt = std::move(f.packets.front());
  f.packets.pop_front();
  f.deficit -= static_cast<std::int64_t>(pkt.size_bytes);
  bytes_ -= pkt.size_bytes;
  --total_packets_;
  head_committed_ = false;
  if (f.packets.empty()) {
    // An emptied flow leaves the round and forfeits its leftover deficit;
    // the next flow up starts a fresh (uncredited) visit.
    f.deficit = 0;
    round_.pop_front();
    front_credited_ = false;
  }
  count_departure(pkt);
  commit_head();
  return pkt;
}

std::vector<Packet> DrrQueue::flush() {
  std::vector<Packet> flushed;
  flushed.reserve(total_packets_);
  // Deterministic drain order: ascending flow key, FIFO within each flow.
  for (auto& [key, f] : flows_) {
    for (Packet& pkt : f.packets) {
      bytes_ -= pkt.size_bytes;
      count_drop(pkt);
      flushed.push_back(std::move(pkt));
    }
    f.packets.clear();
    f.deficit = 0;
  }
  round_.clear();
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
