#include "net/switch_node.h"

#include <cassert>
#include <stdexcept>

#include "util/logging.h"

namespace tcpdyn::net {

std::size_t Switch::add_port(std::unique_ptr<OutputPort> port) {
  ports_.push_back(std::move(port));
  return ports_.size() - 1;
}

void Switch::reset_routes(std::size_t node_count) {
  routes_.assign(node_count, kNoRoute);
}

void Switch::set_route(NodeId dst, std::size_t port_index) {
  assert(dst < routes_.size() && port_index < ports_.size());
  routes_[dst] = static_cast<std::uint32_t>(port_index);
}

void Switch::receive(Packet pkt) {
  const std::optional<std::size_t> port = route_port(pkt.dst);
  if (!port) {
    throw std::logic_error(name() + ": no route to node " +
                           std::to_string(pkt.dst));
  }
  ports_[*port]->enqueue(std::move(pkt));
}

}  // namespace tcpdyn::net
