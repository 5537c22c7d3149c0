// Host: terminates transport endpoints. A host has a single access link
// (one output port) and demultiplexes inbound packets to registered
// endpoints by (connection id, packet kind): data packets go to the
// connection's receiver, ACKs to its sender.
//
// The paper's 0.1 ms per-packet host processing time is modeled on the
// receive path (between link delivery and endpoint delivery). Transmission
// remains immediate on the send path, preserving the "nonpaced" property:
// a source transmits the instant an ACK is processed.
#pragma once

#include <functional>
#include <memory>

#include "net/key_table.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/port.h"
#include "sim/simulator.h"

namespace tcpdyn::net {

// Transport-layer endpoint interface (implemented in tcpdyn::tcp).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(const Packet& pkt) = 0;
};

// Counters maintained natively by the host for the conservation audit:
// every packet in the simulation is created in send() and terminates either
// in a queue drop or in an endpoint delivery here, so
//   sum(created) == sum(delivered) + sum(queue drops)
//                   + packets queued + packets in flight
// over the whole network (see core::audit_counters_check).
struct HostCounters {
  std::uint64_t created = 0;    // packets handed to the access link
  std::uint64_t delivered = 0;  // packets handed to endpoints
  std::uint64_t bytes_created = 0;
  std::uint64_t bytes_delivered = 0;
};

class Host : public Node {
 public:
  Host(sim::Simulator& sim, NodeId id, std::string name,
       sim::Time processing_delay)
      : Node(id, std::move(name)),
        sim_(sim),
        processing_delay_(processing_delay) {}

  // The access link's output port (owned by the host).
  void set_port(std::unique_ptr<OutputPort> port) { port_ = std::move(port); }
  OutputPort& port() { return *port_; }

  // Registers the endpoint that should receive packets of `kind` belonging
  // to connection `conn`. Overwrites any previous registration.
  void register_endpoint(ConnId conn, PacketKind kind, PacketSink* sink);
  // Removes that registration; later packets of the kind take the miss
  // path below.
  void unregister_endpoint(ConnId conn, PacketKind kind);
  std::size_t endpoint_count() const { return endpoints_.size(); }

  // The demux miss path: `resolve` is called, after host processing and on
  // this host's simulator, for a packet no registered endpoint takes. It
  // returns the endpoint to deliver the packet to (one built for it, or one
  // that ignores it), or null when no flow owns the packet. The packet is
  // then counted, observed and delivered like any other. Unset or null, a
  // miss throws std::logic_error.
  using MissHandler = std::function<PacketSink*(const Packet&)>;
  void set_miss_handler(MissHandler resolve) { on_miss_ = std::move(resolve); }

  // Transmits a transport-layer packet onto the access link immediately.
  void send(Packet pkt);

  void receive(Packet pkt) override;

  // Optional hook: fired when a packet is delivered to an endpoint (after
  // host processing). Used by the analysis layer to timestamp ACK arrivals
  // at sources (ACK-compression measurements).
  std::function<void(sim::Time, const Packet&)> on_deliver;

  const HostCounters& counters() const { return counters_; }

  // Lifecycle observer (see net/observer.h); null disables observation.
  void set_observer(PacketObserver* observer) { observer_ = observer; }

 private:
  sim::Simulator& sim_;
  sim::Time processing_delay_;
  std::unique_ptr<OutputPort> port_;
  PacketObserver* observer_ = nullptr;
  HostCounters counters_;
  // Keyed by conn_kind_key. A flat table: a delivery reads a slot or two of
  // one array, and an unregistered endpoint leaves no tombstone, so
  // session churn keeps it at the most endpoints registered at once.
  KeyTable<PacketSink*> endpoints_;
  // Last, behind the members every delivery reads: a miss is rare, and
  // declared before them it moved them 32 bytes on, which made mesh_zoo
  // run ~7% slower.
  MissHandler on_miss_;

  // The miss path: the handler's endpoint, or the no-endpoint error.
  PacketSink* resolve_miss(const Packet& p);
};

}  // namespace tcpdyn::net
