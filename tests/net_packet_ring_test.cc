// PacketRing: the growable circular buffer backing per-port queues.
// Exercises wraparound, growth (order preservation with a displaced head),
// order-preserving erase from both ends, capacity retention, and the
// growth rule of a queue's ring: it starts small, doubles only to the most
// packets it has held, and never passes the power of two of its bound.
#include "net/packet_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace tcpdyn::net {
namespace {

Packet pkt(std::uint32_t seq) {
  Packet p;
  p.seq = seq;
  return p;
}

std::vector<std::uint32_t> contents(const PacketRing& ring) {
  std::vector<std::uint32_t> seqs;
  for (std::size_t i = 0; i < ring.size(); ++i) seqs.push_back(ring[i].seq);
  return seqs;
}

TEST(PacketRing, FifoOrder) {
  PacketRing ring(4);
  for (std::uint32_t i = 0; i < 4; ++i) ring.push_back(pkt(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().seq, 0u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(ring.pop_front().seq, i);
  EXPECT_TRUE(ring.empty());
}

TEST(PacketRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(PacketRing(1).capacity(), 1u);
  EXPECT_EQ(PacketRing(5).capacity(), 8u);
  EXPECT_EQ(PacketRing(20).capacity(), 32u);
  EXPECT_EQ(PacketRing(64).capacity(), 64u);
}

TEST(PacketRing, WraparoundPreservesOrder) {
  PacketRing ring(4);
  // Advance head past the physical end repeatedly: steady-state queue churn.
  std::uint32_t next = 0, expect = 0;
  for (std::uint32_t i = 0; i < 3; ++i) ring.push_back(pkt(next++));
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(ring.pop_front().seq, expect++);
    ring.push_back(pkt(next++));
    EXPECT_EQ(ring.size(), 3u);
  }
  EXPECT_EQ(ring.capacity(), 4u);  // never grew
  EXPECT_EQ(contents(ring), (std::vector<std::uint32_t>{expect, expect + 1,
                                                        expect + 2}));
}

TEST(PacketRing, GrowthLinearizesWrappedContents) {
  PacketRing ring(4);
  // Displace the head so the live region wraps, then force a grow.
  for (std::uint32_t i = 0; i < 4; ++i) ring.push_back(pkt(i));
  ring.pop_front();
  ring.pop_front();
  ring.push_back(pkt(4));
  ring.push_back(pkt(5));  // head=2, wrapped
  ring.push_back(pkt(6));  // triggers grow
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(contents(ring), (std::vector<std::uint32_t>{2, 3, 4, 5, 6}));
  for (std::uint32_t i = 2; i <= 6; ++i) EXPECT_EQ(ring.pop_front().seq, i);
}

TEST(PacketRing, EraseNearHeadShiftsFront) {
  PacketRing ring(8);
  for (std::uint32_t i = 0; i < 6; ++i) ring.push_back(pkt(i));
  EXPECT_EQ(ring.erase(1).seq, 1u);
  EXPECT_EQ(contents(ring), (std::vector<std::uint32_t>{0, 2, 3, 4, 5}));
}

TEST(PacketRing, EraseNearTailShiftsBack) {
  PacketRing ring(8);
  for (std::uint32_t i = 0; i < 6; ++i) ring.push_back(pkt(i));
  EXPECT_EQ(ring.erase(4).seq, 4u);
  EXPECT_EQ(contents(ring), (std::vector<std::uint32_t>{0, 1, 2, 3, 5}));
}

TEST(PacketRing, EraseEndpointsAndSingleton) {
  PacketRing ring(4);
  for (std::uint32_t i = 0; i < 3; ++i) ring.push_back(pkt(i));
  EXPECT_EQ(ring.erase(0).seq, 0u);  // front
  EXPECT_EQ(ring.erase(1).seq, 2u);  // back
  EXPECT_EQ(ring.erase(0).seq, 1u);  // last element
  EXPECT_TRUE(ring.empty());
}

TEST(PacketRing, EraseAcrossWrapBoundary) {
  PacketRing ring(4);
  for (std::uint32_t i = 0; i < 4; ++i) ring.push_back(pkt(i));
  ring.pop_front();
  ring.pop_front();
  ring.push_back(pkt(4));
  ring.push_back(pkt(5));  // live region [2,3,4,5], physically wrapped
  EXPECT_EQ(ring.erase(2).seq, 4u);
  EXPECT_EQ(contents(ring), (std::vector<std::uint32_t>{2, 3, 5}));
  // The random-drop discipline erases then keeps pushing; make sure the
  // structure is still coherent.
  ring.push_back(pkt(6));
  EXPECT_EQ(contents(ring), (std::vector<std::uint32_t>{2, 3, 5, 6}));
}

TEST(PacketRing, PreSizedRingNeverGrows) {
  PacketRing ring(20);
  const std::size_t cap = ring.capacity();
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t i = 0; i < 20; ++i) ring.push_back(pkt(i));
    while (!ring.empty()) ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), cap);
}

TEST(PacketRing, CapacityFollowsTheMostPacketsHeld) {
  PacketRing ring(PacketRing::kInitialCapacity, 1000);
  EXPECT_EQ(ring.capacity(), PacketRing::kInitialCapacity);
  for (std::uint32_t held = 1; held <= 100; ++held) {
    ring.push_back(pkt(held));
    // The smallest power of two at or above the high-water mark, and never
    // below the initial capacity.
    std::size_t want = PacketRing::kInitialCapacity;
    while (want < held) want *= 2;
    ASSERT_EQ(ring.capacity(), want) << "after " << held << " packets";
  }
  while (!ring.empty()) ring.pop_front();
  for (std::uint32_t i = 0; i < 100; ++i) ring.push_back(pkt(i));
  EXPECT_EQ(ring.capacity(), 128u);  // retained, not grown again
}

TEST(PacketRing, GrowthWhileWrappedKeepsFifoAndErasePositions) {
  PacketRing ring(4, 64);
  std::uint32_t next = 0;
  std::vector<std::uint32_t> model;
  // Wrap the live region around the physical end, then grow twice.
  for (int i = 0; i < 3; ++i) {
    model.push_back(next);
    ring.push_back(pkt(next++));
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(ring.pop_front().seq, model.front());
    model.erase(model.begin());
  }
  for (int i = 0; i < 12; ++i) {
    model.push_back(next);
    ring.push_back(pkt(next++));
    ASSERT_EQ(contents(ring), model);
    ASSERT_EQ(ring.front().seq, model.front());
  }
  EXPECT_EQ(ring.capacity(), 16u);
  // Erase from near the head and near the tail: positions still index the
  // FIFO order after the copies.
  EXPECT_EQ(ring.erase(2).seq, model[2]);
  model.erase(model.begin() + 2);
  EXPECT_EQ(ring.erase(model.size() - 2).seq, model[model.size() - 2]);
  model.erase(model.end() - 2);
  EXPECT_EQ(contents(ring), model);
}

TEST(PacketRing, CapacityNeverExceedsTheBoundsPowerOfTwo) {
  for (const std::size_t bound : {1u, 5u, 20u, 50u, 64u}) {
    PacketRing ring(PacketRing::kInitialCapacity, bound);
    std::size_t pow2 = 1;
    while (pow2 < bound) pow2 *= 2;
    EXPECT_EQ(ring.max_capacity(), pow2);
    EXPECT_LE(ring.capacity(), pow2);
    for (std::uint32_t i = 0; i < bound; ++i) ring.push_back(pkt(i));
    EXPECT_EQ(ring.capacity(), pow2) << "bound " << bound;
  }
  // Past a power-of-two bound there is nowhere to grow: refused, not
  // wrapped.
  PacketRing full(4, 8);
  for (std::uint32_t i = 0; i < 8; ++i) full.push_back(pkt(i));
  EXPECT_THROW(full.push_back(pkt(8)), std::length_error);
  EXPECT_EQ(contents(full),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(PacketRing, HugeBoundsStartSmall) {
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  for (const std::size_t bound : {kHuge, std::size_t{1} << 40, kHuge / 2 + 2}) {
    PacketRing ring(PacketRing::kInitialCapacity, bound);
    EXPECT_EQ(ring.capacity(), PacketRing::kInitialCapacity);
    EXPECT_LE(ring.max_capacity(), PacketRing::kMaxCapacity);
    for (std::uint32_t i = 0; i < 10; ++i) ring.push_back(pkt(i));
    EXPECT_EQ(ring.capacity(), 16u);
    for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(ring.pop_front().seq, i);
  }
  EXPECT_EQ(PacketRing(4, kHuge).max_capacity(), PacketRing::kMaxCapacity);
}

}  // namespace
}  // namespace tcpdyn::net
