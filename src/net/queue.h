// Per-port packet buffers behind a pluggable queue-discipline interface
// (paper §2.2: one buffer per outgoing link, no sharing). The zoo:
//
//   drop-tail    arriving packet dropped when the buffer is full (paper
//                default)
//   random-drop  a uniformly chosen occupant is discarded instead, letting
//                the arrival in — the gateway discipline of the Random Drop
//                studies the paper cites ([4, 5, 10, 18])
//   red          Random Early Detection: integer fixed-point EWMA of the
//                queue length, early mark/drop with the count-since-last-
//                mark correction; optionally ECN-marks ECT packets instead
//                of dropping them
//   drr          Deficit Round Robin fair queueing: one FIFO per (conn,
//                kind) flow, served in quantum-sized deficit rounds
//
// The packet currently being transmitted still occupies a buffer slot,
// matching the BSD switches the paper models; the queue-length traces in
// the figures count it.
//
// Determinism contract: every random decision (random-drop victim, RED
// early-mark lottery) comes from a per-queue util::Rng stream seeded once
// at construction from the port's drop seed, advanced only on the decision
// points documented per discipline — the drop/mark sequence is a pure
// function of (discipline, seed, arrival sequence), independent of event
// interleaving elsewhere. RED's EWMA advances exactly once per arrival and
// deliberately has no idle-time decay: the average is a pure function of
// the arrival sequence, with no dependence on wall-clock gaps.
//
// Committed-head invariant (every discipline): once front() has been
// observed with !empty(), the same packet must remain at front() until the
// next pop() — the port reads front() when serialization starts and pops it
// when serialization finishes, with arbitrary offers in between.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/fault.h"
#include "net/packet.h"
#include "net/packet_ring.h"
#include "util/registry.h"
#include "util/rng.h"

namespace tcpdyn::net {

// Buffer capacity in packets; nullopt means infinite (used for the
// fixed-window experiments, Figs. 8-9).
struct QueueLimit {
  std::optional<std::size_t> packets;

  static QueueLimit infinite() { return {}; }
  static QueueLimit of(std::size_t n) { return {n}; }
  bool is_infinite() const { return !packets.has_value(); }
};

// Counters maintained natively by the queue for the analysis layer and the
// conservation audit. Invariants (checked by core::audit_counters_check
// after every Experiment::run):
//
//   arrivals      == departures      + drops         + length()
//   bytes_arrived == bytes_departed  + bytes_dropped + length_bytes()
//
// ECN marks are not part of the conservation law: a marked packet is an
// admitted arrival that departs and is delivered normally. marks counts a
// disjoint outcome from drops (a packet is marked instead of dropped).
struct QueueCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;   // successful pop()s
  std::uint64_t drops = 0;
  std::uint64_t data_drops = 0;   // drops that were data packets
  std::uint64_t ack_drops = 0;    // drops that were ACK packets
  std::uint64_t marks = 0;        // ECN CE marks (admitted, not dropped)
  std::uint64_t bytes_arrived = 0;   // every offered packet's bytes
  std::uint64_t bytes_departed = 0;  // bytes leaving via pop()
  std::uint64_t bytes_dropped = 0;   // arrival and victim drops alike
  std::uint64_t bytes_marked = 0;    // bytes of CE-marked packets
  std::size_t max_length = 0;     // high-water mark, in packets
};

// Outcome of offering a packet to the queue: at most one packet is dropped —
// either the arrival itself (drop-tail, RED early drop) or a previously
// queued victim (random-drop) — and independently the admitted arrival may
// have been CE-marked (RED with ECN).
struct EnqueueResult {
  bool accepted = true;            // the arriving packet was admitted
  bool marked = false;             // the admitted arrival was CE-marked
  // Why `dropped` was discarded (valid when dropped has a value): the
  // arrival at a full buffer (kQueueTail), a random-drop eviction
  // (kQueueVictim), or an AQM early drop before the buffer was full
  // (kQueueEarly). Declared before `dropped` so it packs into the leading
  // padding: a trailing enum pushes sizeof past the optional and measurably
  // slows the offer() return copy on the hot path.
  DropCause cause = DropCause::kQueueTail;
  std::optional<Packet> dropped;   // whichever packet was discarded, if any
};

// Abstract per-port buffer. Owns the counters and the shared counting
// helpers so every implementation reports through the same ledger the
// conservation audit reconciles.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  // Offers a packet under the discipline. `protect_front` excludes the head
  // packet from victim selection (it is in service on the wire and cannot
  // be unsent); disciplines that never evict occupants ignore it.
  //
  // This is the ONLY way in: a bool-returning push() shorthand used to
  // exist, but it discarded EnqueueResult::dropped, so random-drop call
  // sites never learned which queued victim was evicted and drop events
  // went missing. Callers that only care about admission use
  // offer(...).accepted.
  virtual EnqueueResult offer(Packet pkt, bool protect_front = false) = 0;

  // Removes and returns the head packet; nullopt when empty.
  virtual std::optional<Packet> pop() = 0;

  // Empties the buffer, counting every occupant as a drop, and returns the
  // flushed packets in a deterministic order so the port can report each
  // one to the observer. Used by down links in discard mode.
  virtual std::vector<Packet> flush() = 0;

  virtual const Packet& front() const = 0;
  virtual bool empty() const = 0;
  virtual std::size_t length() const = 0;
  virtual std::size_t length_bytes() const = 0;
  virtual const char* name() const = 0;

  // Counts `pkt` as an arrival immediately dropped without admission —
  // used by down links in discard mode, which reject packets before the
  // buffer is consulted at all. Keeps the conservation law intact:
  // arrivals == departures + drops + length(). Folds the current occupancy
  // into the high-water mark exactly as offer() does, so discard-mode
  // counters stay reconcilable with an external observer.
  void count_rejected(const Packet& pkt) {
    count_arrival(pkt);
    count_drop(pkt);
    note_length(length());
  }

  const QueueCounters& counters() const { return counters_; }
  QueueLimit limit() const { return limit_; }

 protected:
  explicit QueueDiscipline(QueueLimit limit) : limit_(limit) {}

  void count_arrival(const Packet& pkt) {
    ++counters_.arrivals;
    counters_.bytes_arrived += pkt.size_bytes;
  }
  void count_drop(const Packet& pkt) {
    ++counters_.drops;
    counters_.bytes_dropped += pkt.size_bytes;
    if (is_data(pkt)) {
      ++counters_.data_drops;
    } else {
      ++counters_.ack_drops;
    }
  }
  void count_departure(const Packet& pkt) {
    ++counters_.departures;
    counters_.bytes_departed += pkt.size_bytes;
  }
  void count_mark(const Packet& pkt) {
    ++counters_.marks;
    counters_.bytes_marked += pkt.size_bytes;
  }
  void note_length(std::size_t len) {
    if (len > counters_.max_length) counters_.max_length = len;
  }

  QueueLimit limit_;
  QueueCounters counters_;
};

// Drop-tail / random-drop FIFO. At a full buffer drop-tail discards the
// arrival (paper default); with `random_drop` a uniformly random occupant
// is discarded instead and the arrival admitted. Behavior is locked by the
// cc_equivalence digests.
class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(QueueLimit limit, bool random_drop = false,
                         std::uint64_t seed = 1)
      : QueueDiscipline(limit),
        random_drop_(random_drop),
        rng_(seed),
        // Bounded queues never exceed their limit, so sizing the ring up
        // front makes every subsequent operation allocation-free.
        packets_(limit.is_infinite() ? 32 : *limit.packets) {}

  EnqueueResult offer(Packet pkt, bool protect_front = false) override;
  std::optional<Packet> pop() override;
  std::vector<Packet> flush() override;

  const Packet& front() const override { return packets_.front(); }
  bool empty() const override { return packets_.empty(); }
  std::size_t length() const override { return packets_.size(); }
  std::size_t length_bytes() const override { return bytes_; }
  const char* name() const override {
    return random_drop_ ? "randomdrop" : "droptail";
  }

 private:
  bool random_drop_;
  util::Rng rng_;
  PacketRing packets_;  // ring buffer: allocation-free once at working size
  std::size_t bytes_ = 0;
};

// RED configuration. Thresholds are in packets; probabilities are 16-bit
// fixed point (65536 == 1.0). With the defaults, w_q = 2^-9 and
// max_p = 0.1 — the classic Floyd/Jacobson operating point scaled to the
// paper's 20-packet buffers.
struct RedParams {
  std::size_t min_th = 5;           // below: never mark/drop
  std::size_t max_th = 15;          // at or above (avg): always drop
  unsigned wq_shift = 9;            // EWMA gain w_q = 2^-wq_shift
  std::uint32_t max_p_65536 = 6554; // mark probability at max_th (~0.1)
  bool ecn = false;                 // mark ECT packets instead of dropping
};

// Random Early Detection (Floyd & Jacobson 1993), all-integer. The average
// queue length is a 16.16 fixed-point EWMA updated once per arrival from
// the pre-admission instantaneous length:
//
//   avg += (length << 16  -  avg) >> wq_shift
//
// In the band [min_th, max_th) the base probability rises linearly,
//
//   p_b = max_p * (avg - min_th) / (max_th - min_th)
//
// and the count-since-last-mark correction makes inter-mark gaps uniform:
//
//   p_a = p_b / (1 - count * p_b)        (certain once the denominator <= 0)
//
// both evaluated in 2^16 fixed point against one draw of next_below(65536)
// per in-band arrival — the only RNG consumption, so the mark/drop sequence
// replays exactly from the seed. avg >= max_th forces a drop; a full buffer
// tail-drops regardless of avg. When `ecn` is set, an in-band "drop" of an
// ECT packet becomes a CE mark and the packet is admitted.
class RedQueue final : public QueueDiscipline {
 public:
  RedQueue(QueueLimit limit, RedParams params, std::uint64_t seed = 1)
      : QueueDiscipline(limit),
        params_(params),
        rng_(seed),
        packets_(limit.is_infinite() ? 32 : *limit.packets) {}

  EnqueueResult offer(Packet pkt, bool protect_front = false) override;
  std::optional<Packet> pop() override;
  std::vector<Packet> flush() override;

  const Packet& front() const override { return packets_.front(); }
  bool empty() const override { return packets_.empty(); }
  std::size_t length() const override { return packets_.size(); }
  std::size_t length_bytes() const override { return bytes_; }
  const char* name() const override { return params_.ecn ? "red-ecn" : "red"; }

  const RedParams& params() const { return params_; }
  // The fixed-point EWMA, for tests: avg_fixed() >> 16 is the average in
  // packets.
  std::uint64_t avg_fixed() const { return avg_; }
  std::int64_t mark_count() const { return count_; }

 private:
  RedParams params_;
  util::Rng rng_;
  PacketRing packets_;
  std::size_t bytes_ = 0;
  std::int64_t avg_ = 0;    // 16.16 fixed-point EWMA of the queue length
  std::int64_t count_ = 0;  // in-band arrivals since the last mark/drop
};

// DRR configuration. The quantum is in bytes; the default equals one data
// packet of the paper's scenarios, giving packet-granularity round robin.
struct DrrParams {
  std::size_t quantum_bytes = 500;
};

// Deficit Round Robin (Shreedhar & Varghese 1995). Arrivals are classified
// into per-flow FIFOs keyed by (connection id, packet kind) — a
// connection's data and its ACKs are distinct flows, so a two-way trunk
// round-robins data against reverse ACKs instead of letting one window
// starve the other. Each flow's deficit grows by one quantum per
// round-robin visit; its head is eligible once the deficit covers the head
// size. The total occupancy is bounded by the shared limit with buffer
// stealing on overflow (McKenney): the arrival is admitted and the newest
// packet of the longest flow is evicted instead, so one heavy flow cannot
// monopolize the buffer and starve the others. The committed head is never
// the victim. No RNG: DRR is deterministic by construction (victim ties go
// to the smallest flow key).
class DrrQueue final : public QueueDiscipline {
 public:
  DrrQueue(QueueLimit limit, DrrParams params)
      : QueueDiscipline(limit), params_(params) {
    // A zero quantum would never cover any head packet; clamp so the
    // round-robin always makes progress.
    if (params_.quantum_bytes == 0) params_.quantum_bytes = 1;
  }

  EnqueueResult offer(Packet pkt, bool protect_front = false) override;
  std::optional<Packet> pop() override;
  std::vector<Packet> flush() override;

  const Packet& front() const override;
  bool empty() const override { return total_packets_ == 0; }
  std::size_t length() const override { return total_packets_; }
  std::size_t length_bytes() const override { return bytes_; }
  const char* name() const override { return "drr"; }

  const DrrParams& params() const { return params_; }
  std::size_t active_flows() const { return round_.size(); }

 private:
  struct Flow {
    std::deque<Packet> packets;
    std::int64_t deficit = 0;
  };

  static std::uint64_t flow_key(const Packet& pkt) {
    return (static_cast<std::uint64_t>(pkt.conn) << 1) |
           (is_ack(pkt) ? 1u : 0u);
  }

  // Advances the round-robin until the front flow's head packet is covered
  // by its deficit (adding one quantum per visit). The committed head then
  // stays put until the next pop().
  void commit_head();

  DrrParams params_;
  // Flow table: std::map so flush() drains in a deterministic key order.
  std::map<std::uint64_t, Flow> flows_;
  std::deque<std::uint64_t> round_;  // active flows, round-robin order
  bool head_committed_ = false;
  // The current front flow has already received this visit's quantum.
  bool front_credited_ = false;
  std::size_t total_packets_ = 0;
  std::size_t bytes_ = 0;
};

// ------------------------------------------------------- selection surface

enum class QdiscKind : std::uint8_t { kDropTail, kRandomDrop, kRed, kDrr };

// Everything needed to build a port's discipline. The per-port seed comes
// from the owner (Network::connect derives it from the endpoint ids), not
// from the config, so one config can be shared across links.
struct QdiscConfig {
  QdiscKind kind = QdiscKind::kDropTail;
  QueueLimit limit = QueueLimit::infinite();
  RedParams red;
  DrrParams drr;

  static QdiscConfig drop_tail(QueueLimit limit) { return {QdiscKind::kDropTail, limit, {}, {}}; }
  static QdiscConfig random_drop(QueueLimit limit) { return {QdiscKind::kRandomDrop, limit, {}, {}}; }
};

std::unique_ptr<QueueDiscipline> make_qdisc(const QdiscConfig& config,
                                            std::uint64_t seed);

// One registry row: the discipline plus any name-implied option ("red-ecn"
// is red with ECN marking on).
struct QdiscChoice {
  QdiscKind kind = QdiscKind::kDropTail;
  bool ecn = false;
};

// The single name<->discipline table: powers --qdisc flags, .topo link
// stanzas, --help enumeration, and did-you-mean errors (require()).
const util::Registry<QdiscChoice>& qdisc_registry();

// Thin wrapper over qdisc_registry().find(); nullopt on unknown names.
// When `ecn` is non-null it receives the name-implied ECN setting.
std::optional<QdiscKind> parse_qdisc(std::string_view s, bool* ecn = nullptr);
const char* to_string(QdiscKind kind);

}  // namespace tcpdyn::net
