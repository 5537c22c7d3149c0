// Abstract network node: anything a link can deliver packets to.
#pragma once

#include <stdexcept>
#include <string>

#include "net/packet.h"
#include "sim/det_context.h"

namespace tcpdyn::net {

class Node {
 public:
  // Throws std::invalid_argument for an id outside det-key's 24-bit id
  // space (kDetCtxMaxId itself is every simulator's engine context).
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {
    if (id >= sim::kDetCtxMaxId) {
      throw std::invalid_argument(
          "node id " + std::to_string(id) +
          " exceeds the deterministic-key id space (ids must be < " +
          std::to_string(sim::kDetCtxMaxId) + ")");
    }
    det_ctx_.id = id;
  }
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Delivers a packet that has finished propagating over an inbound link.
  virtual void receive(Packet pkt) = 0;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Deterministic ordering identity (sim/det_context.h): events this node
  // emits are tie-broken by (node id, emission count).
  sim::DetContext* det_context() { return &det_ctx_; }

 private:
  NodeId id_;
  std::string name_;
  sim::DetContext det_ctx_;
};

}  // namespace tcpdyn::net
