// KeyTable: an open-addressing hash table from a 64-bit flow key to a small
// value, for the per-host endpoint demux and DRR's flow index. Keys are
// conn_kind_key()s, so they stay below 2^33 and the all-ones key marks an
// empty slot. Linear probing over one flat array: a lookup reads one or
// two adjacent slots, where a node-based map chases a bucket pointer to a
// heap node.
//
// erase() uses backward-shift deletion: the entries after the hole that
// probed past it move back, so no tombstone is left and a probe never grows
// longer than the live entries make it. Capacity doubles when the live
// entries would pass 3/4 of it and never shrinks, so a table's memory
// follows the most entries it has held at once, however many keys have
// come and gone. Iteration order is never observable: no caller walks the
// table.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace tcpdyn::net {

// The key of connection `conn`'s endpoint or flow of one kind:
// (conn << 1) | kind bit.
inline std::uint64_t conn_kind_key(ConnId conn, PacketKind kind) {
  return (static_cast<std::uint64_t>(conn) << 1) |
         (kind == PacketKind::kAck ? 1u : 0u);
}

template <typename V>
class KeyTable {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // The value stored under `key`, or null. The pointer is valid until the
  // next insert or erase.
  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  // Stores `value` under `key`, overwriting any previous value.
  void insert_or_assign(std::uint64_t key, V value) {
    assert(key != kEmpty);
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(grown_capacity());
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty && slots_[i].key != key) i = next(i);
    if (slots_[i].key == kEmpty) ++size_;
    slots_[i] = {key, value};
  }

  // Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmpty) return false;
      hole = next(hole);
    }
    // Backward shift: move each later entry of the probe run into the hole
    // unless its home lies cyclically in (hole, j], where it already is on
    // its own probe path.
    for (std::size_t j = next(hole); slots_[j].key != kEmpty; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      const bool stays =
          hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole].key = kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 8;

  // Fibonacci hashing: the product's top bits spread consecutive keys.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  std::size_t grown_capacity() const {
    return slots_.empty() ? kMinCapacity : slots_.size() * 2;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace tcpdyn::net
