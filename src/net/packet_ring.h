// PacketRing: a growable circular buffer of Packets backing the per-port
// queues. push_back/pop_front are O(1) with no per-element allocation. A
// ring starts small and doubles only when a push finds it full, so its
// capacity follows the most packets it has held, never the buffer its
// queue declares: a port's memory follows the packets it queues. Growth
// stops at the power of two of `max_size`; a queue that never holds more
// than its bounded limit therefore allocates at most log2(limit / initial)
// times in its life, and a ring that has reached its working size never
// touches the heap again (the deque it replaced allocated and freed chunks
// continuously). erase(i) supports the random-drop discipline's victim
// removal by shifting from whichever end is closer (queues are tens of
// packets, so this is a handful of 64-byte copies).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "net/packet.h"

namespace tcpdyn::net {

static_assert(std::is_trivially_copyable_v<Packet>,
              "PacketRing relies on cheap Packet copies");

class PacketRing {
 public:
  // The capacity a queue's ring starts at, whatever its declared buffer.
  static constexpr std::size_t kInitialCapacity = 4;
  // The largest power of two a std::size_t holds: no capacity goes past it,
  // so doubling never wraps.
  static constexpr std::size_t kMaxCapacity =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

  // Starts at `initial_capacity` and grows by doubling up to `max_size`;
  // both round up to a power of two (index masking), and the start never
  // exceeds the bound. The caller keeps size() <= max_size.
  explicit PacketRing(std::size_t initial_capacity = kInitialCapacity,
                      std::size_t max_size = kMaxCapacity)
      : max_capacity_(pow2_at_least(max_size)),
        buf_(std::min(pow2_at_least(initial_capacity), max_capacity_)) {}

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t max_capacity() const { return max_capacity_; }

  const Packet& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  // i-th element from the front, 0 <= i < size().
  Packet& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[mask(head_ + i)];
  }
  const Packet& operator[](std::size_t i) const {
    assert(i < count_);
    return buf_[mask(head_ + i)];
  }

  void push_back(const Packet& pkt) {
    if (count_ == buf_.size()) grow();
    buf_[mask(head_ + count_)] = pkt;
    ++count_;
  }

  Packet pop_front() {
    assert(count_ > 0);
    Packet pkt = buf_[head_];
    head_ = mask(head_ + 1);
    --count_;
    return pkt;
  }

  // Removes the i-th element from the front, preserving the order of the
  // rest. Shifts the shorter side toward the gap.
  Packet erase(std::size_t i) {
    assert(i < count_);
    Packet victim = (*this)[i];
    if (i < count_ - i - 1) {
      // Closer to the head: shift [0, i) back by one, advance head.
      for (std::size_t k = i; k > 0; --k) (*this)[k] = (*this)[k - 1];
      head_ = mask(head_ + 1);
    } else {
      // Closer to the tail: shift (i, count) forward by one.
      for (std::size_t k = i; k + 1 < count_; ++k) (*this)[k] = (*this)[k + 1];
    }
    --count_;
    return victim;
  }

 private:
  static std::size_t pow2_at_least(std::size_t n) {
    return std::bit_ceil(std::min(n, kMaxCapacity));
  }

  std::size_t mask(std::size_t i) const { return i & (buf_.size() - 1); }

  // Doubles the capacity, copying the packets to the front of the new
  // buffer in FIFO order: index i still names the same packet, so the
  // committed head stays at front().
  void grow() {
    if (buf_.size() >= max_capacity_) {
      throw std::length_error("PacketRing: push past its bounded size");
    }
    std::vector<Packet> bigger(buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = (*this)[i];
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::size_t max_capacity_;
  std::vector<Packet> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tcpdyn::net
