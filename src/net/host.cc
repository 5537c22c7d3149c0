#include "net/host.h"

#include <stdexcept>

namespace tcpdyn::net {

void Host::register_endpoint(ConnId conn, PacketKind kind, PacketSink* sink) {
  endpoints_.insert_or_assign(conn_kind_key(conn, kind), sink);
}

void Host::unregister_endpoint(ConnId conn, PacketKind kind) {
  endpoints_.erase(conn_kind_key(conn, kind));
}

PacketSink* Host::resolve_miss(const Packet& p) {
  PacketSink* sink = on_miss_ ? on_miss_(p) : nullptr;
  if (sink == nullptr) {
    throw std::logic_error(name() + ": no endpoint for conn " +
                           std::to_string(p.conn));
  }
  return sink;
}

void Host::send(Packet pkt) {
  if (!port_) throw std::logic_error(name() + ": host has no access link");
  ++counters_.created;
  counters_.bytes_created += pkt.size_bytes;
  if (observer_ != nullptr) observer_->on_create(sim_.now(), pkt);
  port_->enqueue(std::move(pkt));
}

void Host::receive(Packet pkt) {
  auto process = [this, p = std::move(pkt)]() {
    PacketSink* const* found =
        endpoints_.find(conn_kind_key(p.conn, p.kind));
    PacketSink* sink = found != nullptr ? *found : resolve_miss(p);
    ++counters_.delivered;
    counters_.bytes_delivered += p.size_bytes;
    if (observer_ != nullptr) observer_->on_deliver(sim_.now(), p);
    if (on_deliver) on_deliver(sim_.now(), p);
    sink->deliver(p);
  };
  static_assert(sim::Scheduler::Action::fits<decltype(process)>,
                "host-processing event (pointer + Packet) must stay inline");
  sim_.schedule(processing_delay_, std::move(process));
}

}  // namespace tcpdyn::net
