// OutputPort: a queue discipline feeding a simplex transmitter. Models
// store-and-forward serialization at `bits_per_second` followed by a fixed
// propagation delay to the peer node. Transmission is error-free by default
// (paper §2.2); the fault-injection layer can perturb a port at runtime —
// take the link down/up, change its rate or delay mid-serialization, and
// attach a wire impairment model (net/fault.h) — all via scheduler events,
// so faulted runs stay byte-identical per seed.
//
// Observability: the port exposes counters, an opt-in busy-interval record
// for exact utilization computation (enable_busy_record(); monitored ports
// turn it on, unmonitored ports stay allocation-free and bounded-memory over
// arbitrarily long runs), and optional hooks fired on queue-length change,
// packet departure (start of transmission, which fixes the departure order
// used by the clustering analysis), and drop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/node.h"
#include "net/observer.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace tcpdyn::net {

// Closed interval during which the transmitter was serializing packets.
struct BusyInterval {
  sim::Time start;
  sim::Time end;
};

class OutputPort {
 public:
  // Any discipline in the zoo via QdiscConfig. `drop_seed` seeds the
  // discipline's RNG stream (random-drop victims, RED lottery).
  OutputPort(sim::Simulator& sim, std::string name,
             std::int64_t bits_per_second, sim::Time propagation_delay,
             const QdiscConfig& qdisc, std::uint64_t drop_seed = 1);

  void set_peer(Node* peer) { peer_ = peer; }
  Node* peer() const { return peer_; }

  // Simulator this port schedules on (its owning node's shard in sharded
  // runs; the network-wide simulator otherwise).
  sim::Simulator& sim() { return sim_; }

  // Cross-shard handoff: when set, finish_transmission hands each surviving
  // packet to this callback — with its absolute arrival time, propagation
  // and reorder jitter already applied — instead of scheduling delivery
  // locally. The sharded engine uses it to route packets whose peer node
  // lives on another shard through that shard's mailbox.
  using CrossHandoff = std::function<void(OutputPort&, sim::Time, Packet)>;
  void set_cross_handoff(CrossHandoff fn) { cross_handoff_ = std::move(fn); }

  // Enqueues for transmission; starts the transmitter if idle. Drops (and
  // fires on_drop) when the buffer is full.
  void enqueue(Packet pkt);

  const std::string& name() const { return name_; }
  std::int64_t bits_per_second() const { return bits_per_second_; }
  sim::Time propagation_delay() const { return propagation_delay_; }
  std::size_t queue_length() const { return queue_->length(); }
  std::size_t queue_length_bytes() const { return queue_->length_bytes(); }
  const QueueCounters& counters() const { return queue_->counters(); }
  const QueueDiscipline& qdisc() const { return *queue_; }

  // Whether a packet is currently serializing onto the wire (the queue head
  // occupies a buffer slot until finish_transmission pops it). The audit's
  // busy-time cross-check uses this to bound the open busy interval.
  bool transmitting() const { return transmitting_; }

  // Head packet of the buffer; valid only when queue_length() > 0. While
  // transmitting() this is the packet in service.
  const Packet& front() const { return queue_->front(); }

  // Lifecycle observer (see net/observer.h); null disables observation.
  void set_observer(PacketObserver* observer) { observer_ = observer; }

  // Serialization time of one packet on this port's line.
  sim::Time transmission_time(const Packet& pkt) const {
    return sim::Time::transmission(pkt.size_bytes, bits_per_second_);
  }

  // Starts recording busy intervals (required before querying busy_in /
  // utilization). Experiment::monitor enables this on monitored ports;
  // unmonitored ports skip the recording entirely.
  void enable_busy_record() { record_busy_ = true; }
  bool busy_record_enabled() const { return record_busy_; }

  // Total time the transmitter was busy within [from, to]. Requires
  // enable_busy_record() to have been called before traffic flowed.
  sim::Time busy_in(sim::Time from, sim::Time to) const;

  // Busy fraction of [from, to]; 0 for an empty window.
  double utilization(sim::Time from, sim::Time to) const;

  // ---- Link dynamics (fault injection) -----------------------------------
  // All of these may be called mid-run from scheduler events. Calling any of
  // them marks the port dynamic (dynamics_applied()), which switches the
  // audit's busy-time cross-check to the exact busy_accounted_ns() ledger.
  // A port never touched by these calls pays nothing on the hot path beyond
  // one predictable branch per packet.

  // Takes the link down or up. Down: an in-flight serialization is aborted
  // (the frame is lost work; the head packet stays buffered and re-serializes
  // from scratch on link-up, so on_depart can fire more than once for it);
  // under DownPolicy::kDiscard the buffer is flushed (each occupant dropped
  // with DropCause::kDownFlush) and arrivals are rejected while down
  // (DropCause::kDownArrival). Under kDrain the buffer holds and keeps
  // accepting arrivals up to its limit. Packets already propagating on the
  // wire still deliver — cutting a link does not destroy light in transit.
  void set_link_up(bool up);
  bool link_up() const { return up_; }

  void set_down_policy(DownPolicy policy) { down_policy_ = policy; }
  DownPolicy down_policy() const { return down_policy_; }

  // Changes the line rate. A packet mid-serialization is re-armed: the
  // fraction already sent stays sent, and the remainder drains at the new
  // rate (exact integer arithmetic, no drift).
  void set_rate(std::int64_t bits_per_second);

  // Changes the propagation delay for future departures; packets already on
  // the wire keep the delay they left with.
  void set_propagation_delay(sim::Time delay);

  // Attaches (or replaces) a wire impairment model with its own RNG stream.
  // Each dequeued packet consults the model once, in serialization order.
  void attach_impairment(const Impairment& model, std::uint64_t seed);
  const ImpairmentState* impairment() const { return impair_.get(); }

  const FaultCounters& fault_counters() const { return fault_counters_; }

  // True once any dynamics call has touched this port.
  bool dynamics_applied() const { return dynamic_; }

  // Exact nanoseconds of transmitter busy time since t=0: completed
  // serializations + aborted serialization work + the open one. Equals
  // busy_in(0, now) whenever busy recording was on from the start; the audit
  // uses it for dynamic ports, where per-packet size arithmetic can no
  // longer reconstruct busy time.
  std::int64_t busy_accounted_ns() const {
    std::int64_t total = served_tx_ns_ + aborted_tx_ns_;
    if (transmitting_) total += (sim_.now() - tx_started_).ns();
    return total;
  }

  // Hooks (any may be left unset).
  std::function<void(sim::Time, std::size_t)> on_queue_change;
  std::function<void(sim::Time, const Packet&)> on_depart;
  std::function<void(sim::Time, const Packet&)> on_drop;

 private:
  void start_transmission();
  void finish_transmission();

  sim::Simulator& sim_;
  std::string name_;
  std::int64_t bits_per_second_;
  sim::Time propagation_delay_;
  std::unique_ptr<QueueDiscipline> queue_;
  Node* peer_ = nullptr;
  CrossHandoff cross_handoff_;  // set only on shard-boundary ports
  PacketObserver* observer_ = nullptr;
  bool transmitting_ = false;
  bool record_busy_ = false;
  bool up_ = true;
  bool dynamic_ = false;
  DownPolicy down_policy_ = DownPolicy::kDrain;
  std::unique_ptr<ImpairmentState> impair_;  // null: error-free wire
  sim::EventHandle tx_done_;    // pending finish_transmission event
  sim::Time tx_started_;        // when the open serialization began
  std::int64_t served_tx_ns_ = 0;   // completed serialization time
  std::int64_t aborted_tx_ns_ = 0;  // serialization work lost to link-down
  FaultCounters fault_counters_;
  std::vector<BusyInterval> busy_;  // merged, ordered; open last interval while transmitting
};

}  // namespace tcpdyn::net
