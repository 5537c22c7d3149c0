// Hierarchical timer wheel state: the scheduler's staging area for events
// while many are pending (see Scheduler::kWheelStagingMin).
//
// Six levels of 256 slots each over a 2^10 ns (~1 us) base tick cover ~9
// simulated years. An event at tick T relative to the wheel cursor lives at
// the level of the highest bit in which T differs from the cursor, so every
// entry's slot index at its level is strictly ahead of the cursor's index
// and cascades move entries only downward — arm and cancel are O(1), and an
// entry cascades at most kLevels times over its lifetime.
//
// The wheel only stages events. The scheduler's 4-ary heap (one
// deterministic-key comparator) stays the dispatch buffer: before any pop,
// slots at or below the heap front are consumed into the heap, so firing
// order is the key order by construction, whichever structure held an
// event while it waited. See DESIGN.md §13.1.
//
// Nodes are intrusive: wheel buckets are doubly-linked lists threaded
// through the scheduler's slab slots, so cancellation unlinks in O(1) and
// leaves no tombstone (unlike heap cancellation, which must tombstone).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace tcpdyn::sim {

// POD wheel state: bucket heads, per-level occupancy bitmaps, cursor.
// The bucket lists themselves are threaded through Scheduler's slab slots;
// this struct only knows slot indices (kNilHead when empty).
struct TimerWheelState {
  static constexpr int kLevels = 6;
  static constexpr int kSlotsPerLevel = 256;  // 8 bits per level
  static constexpr int kLevelBits = 8;
  static constexpr int kTickShift = 10;  // level-0 tick = 1024 ns
  static constexpr std::uint32_t kNilHead = UINT32_MAX;
  // Bucket ids: level * 256 + index; one extra "far" bucket for events
  // beyond the wheel horizon (> ~9 simulated years out, e.g. Time::max()).
  static constexpr std::uint16_t kFarBucket = kLevels * kSlotsPerLevel;
  static constexpr std::uint16_t kNoBucket = UINT16_MAX;

  std::array<std::uint32_t, kLevels * kSlotsPerLevel + 1> head;
  std::uint64_t bitmap[kLevels][kSlotsPerLevel / 64] = {};
  // Next unconsumed level-0 tick; all in-wheel entries have tick >= cursor.
  std::int64_t cursor = 0;
  // Entries currently staged in the wheel (all live: cancel unlinks).
  std::size_t live = 0;

  TimerWheelState() { head.fill(kNilHead); }

  static std::int64_t tick_of(std::int64_t at_ns) { return at_ns >> kTickShift; }
  std::int64_t cursor_time_ns() const { return cursor << kTickShift; }

  void set_bit(int level, int idx) {
    bitmap[level][idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_bit(int level, int idx) {
    bitmap[level][idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }
  // First occupied slot index >= from at `level`, or -1 if none.
  int find_from(int level, int from) const {
    int word = from >> 6;
    std::uint64_t bits = bitmap[level][word] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (bits != 0) return (word << 6) + std::countr_zero(bits);
      if (++word == kSlotsPerLevel / 64) return -1;
      bits = bitmap[level][word];
    }
  }

  // Bucket for an event at `tick` (>= cursor): highest differing bit picks
  // the level, so the slot index at that level is strictly ahead of the
  // cursor's index there (no wrap aliasing). Beyond the horizon -> far.
  std::uint16_t bucket_for(std::int64_t tick) const {
    const std::uint64_t diff =
        static_cast<std::uint64_t>(tick) ^ static_cast<std::uint64_t>(cursor);
    if ((diff >> (kLevelBits * kLevels)) != 0) return kFarBucket;
    const int level =
        diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
    const int idx =
        static_cast<int>((tick >> (kLevelBits * level)) & (kSlotsPerLevel - 1));
    return static_cast<std::uint16_t>(level * kSlotsPerLevel + idx);
  }
};

}  // namespace tcpdyn::sim
