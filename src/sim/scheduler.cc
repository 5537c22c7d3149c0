#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcpdyn::sim {

namespace {
constexpr int kLevelBits = TimerWheelState::kLevelBits;
constexpr int kSlotsPerLevel = TimerWheelState::kSlotsPerLevel;
constexpr std::int64_t kSlotMask = kSlotsPerLevel - 1;
}  // namespace

void EventHandle::cancel() {
  if (scheduler_ != nullptr) scheduler_->cancel(slot_, generation_);
}

bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->is_pending(slot_, generation_);
}

EventHandle Scheduler::schedule_at(Time at, std::uint64_t seq,
                                   std::uint64_t det_tie, DetContext* ctx,
                                   Action&& action) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.ctx = ctx;
  ++live_events_;
  if (live_events_ > kWheelStagingMin &&
      TimerWheelState::tick_of(at.ns()) >= wheel_.cursor) {
    s.at = at;
    s.seq = seq;
    s.det_tie = det_tie;
    wheel_insert(slot);
    ++wheel_.live;
  } else {
    // Few events pending, or an event inside the already-consumed cursor
    // range (at/below the current dispatch horizon): straight into the heap.
    heap_push(Entry{at, seq, det_tie, slot, s.generation});
  }
  return EventHandle(this, slot, s.generation);
}

void Scheduler::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!is_pending(slot, generation)) return;  // already fired or cancelled
  if (slots_[slot].bucket != TimerWheelState::kNoBucket) {
    // Wheel-staged: O(1) unlink, no tombstone left anywhere.
    wheel_unlink(slot);
    --wheel_.live;
    release_slot(slot);
    --live_events_;
    return;
  }
  release_slot(slot);
  --live_events_;
  // The heap entry stays behind as a tombstone (its generation no longer
  // matches) and is dropped when it surfaces, or by compaction.
  maybe_compact();
}

Time Scheduler::next_time() {
  if (wheel_.live != 0) wheel_settle();
  drop_dead_front();
  return heap_.empty() ? Time::max() : heap_.front().at;
}

Time Scheduler::run_next() {
  if (wheel_.live != 0) wheel_settle();
  drop_dead_front();
  assert(!heap_.empty());
  const Entry entry = heap_.front();
  heap_pop_front();
  // Move the action out and retire the slot before running: the action may
  // re-arm its own handle (pending() must already read false) and may
  // schedule new events into the just-freed slot.
  Action action = std::move(slots_[entry.slot].action);
  DetContext* const dctx = slots_[entry.slot].ctx;
  release_slot(entry.slot);
  --live_events_;
  if (dctx != nullptr) *active_ref_ = dctx;
  action();
  return entry.at;
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilSlot;
    return slot;
  }
  assert(slots_.size() < kNilSlot);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.bucket == TimerWheelState::kNoBucket);
  ++s.generation;  // invalidates handles and the heap entry
  s.action.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::heap_push(Entry entry) {
  // Hole-based sift-up: each displaced parent is written once, one level
  // down, and the new entry once, into the final hole.
  heap_.push_back(entry);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!entry_before(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Scheduler::heap_pop_front() {
  assert(!heap_.empty());
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0, last);
}

void Scheduler::heap_sift_down(std::size_t hole, Entry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kHeapArity, n);
    std::size_t smallest = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (entry_before(heap_[c], heap_[smallest])) smallest = c;
    }
    if (!entry_before(heap_[smallest], entry)) break;
    heap_[hole] = heap_[smallest];
    hole = smallest;
  }
  heap_[hole] = entry;
}

void Scheduler::drop_dead_front() {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].generation != heap_.front().generation) {
    heap_pop_front();
  }
}

void Scheduler::maybe_compact() {
  // Tombstones normally surface and are dropped as the clock reaches them;
  // compaction only matters for workloads that cancel far-future events en
  // masse (e.g. tearing down many connections' retransmit timers). Only
  // heap-resident events can tombstone, so compare against the heap's share
  // of the live count (wheel cancellation unlinks eagerly).
  const std::size_t heap_live = live_events_ - wheel_.live;
  if (heap_.size() < 64 || heap_.size() < 2 * heap_live) return;
  const auto dead = [this](const Entry& e) {
    return slots_[e.slot].generation != e.generation;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  // Heapify: sift every parent down, from the last one (the parent of the
  // last entry) back to the root.
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
    heap_sift_down(i, heap_[i]);
  }
}

void Scheduler::wheel_insert(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint16_t b = wheel_.bucket_for(TimerWheelState::tick_of(s.at.ns()));
  if (b != TimerWheelState::kFarBucket) {
    wheel_.set_bit(b / kSlotsPerLevel, b % kSlotsPerLevel);
  }
  s.bucket = b;
  s.wheel_prev = kNilSlot;
  s.wheel_next = wheel_.head[b];
  if (s.wheel_next != kNilSlot) slots_[s.wheel_next].wheel_prev = slot;
  wheel_.head[b] = slot;
}

void Scheduler::wheel_unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint16_t b = s.bucket;
  if (s.wheel_prev != kNilSlot) {
    slots_[s.wheel_prev].wheel_next = s.wheel_next;
  } else {
    wheel_.head[b] = s.wheel_next;
  }
  if (s.wheel_next != kNilSlot) slots_[s.wheel_next].wheel_prev = s.wheel_prev;
  s.bucket = TimerWheelState::kNoBucket;
  s.wheel_prev = s.wheel_next = kNilSlot;
  if (b != TimerWheelState::kFarBucket && wheel_.head[b] == kNilSlot) {
    wheel_.clear_bit(b / kSlotsPerLevel, b % kSlotsPerLevel);
  }
}

void Scheduler::wheel_settle() {
  // Merge wheel slots into the dispatch heap until the heap front is
  // strictly below the cursor (then nothing on the wheel can precede it) or
  // the wheel drains. Ties at the cursor boundary consume the slot first, so
  // key order is resolved inside the heap, never by wheel layout. Heap
  // entries at or past the cursor (inserted while few events were pending)
  // need nothing more: the loop runs until the front is below the cursor.
  for (;;) {
    drop_dead_front();
    if (wheel_.live == 0) return;
    if (!heap_.empty() && heap_.front().at.ns() < wheel_.cursor_time_ns()) {
      return;
    }
    wheel_advance_step();
  }
}

void Scheduler::wheel_advance_step() {
  // When a ++cursor carry enters a new block, the block's own bucket at a
  // higher level may still be staged from before the carry (the carry path
  // does not scan upper levels). Its entries can be anywhere inside the
  // block — including ticks that fresh inserts have since mapped to level 0
  // — so flatten it before consuming anything, or a same-tick pair could
  // dispatch out of key order. Inserts and cascades never target the
  // cursor's own index (equal digits map lower), so this only fires at
  // block entry, where the cursor's digits below `level` are all zero.
  for (int level = 1; level < TimerWheelState::kLevels; ++level) {
    const int cur =
        static_cast<int>((wheel_.cursor >> (kLevelBits * level)) & kSlotMask);
    const std::uint16_t b =
        static_cast<std::uint16_t>(level * kSlotsPerLevel + cur);
    if (wheel_.head[b] != kNilSlot) {
      wheel_cascade(level, cur);
      return;
    }
  }
  // Level 0 first: its in-range slots (>= the cursor's own index) all
  // precede anything staged at higher levels, which in turn precede the
  // beyond-horizon far set.
  const int idx0 = wheel_.find_from(0, static_cast<int>(wheel_.cursor & kSlotMask));
  if (idx0 >= 0) {
    wheel_.cursor = (wheel_.cursor & ~kSlotMask) | idx0;
    wheel_consume_level0(idx0);
    ++wheel_.cursor;
    return;
  }
  for (int level = 1; level < TimerWheelState::kLevels; ++level) {
    const int cur = static_cast<int>((wheel_.cursor >> (kLevelBits * level)) & kSlotMask);
    const int idx = wheel_.find_from(level, cur);
    if (idx < 0) continue;
    const int shift = kLevelBits * (level + 1);
    const std::int64_t block =
        ((wheel_.cursor >> shift) << shift) |
        (static_cast<std::int64_t>(idx) << (kLevelBits * level));
    assert(block >= wheel_.cursor);
    wheel_.cursor = block;
    wheel_cascade(level, idx);
    return;
  }
  wheel_far_jump();
}

void Scheduler::wheel_consume_level0(int idx) {
  std::uint32_t node = wheel_.head[idx];
  wheel_.head[idx] = kNilSlot;
  wheel_.clear_bit(0, idx);
  while (node != kNilSlot) {
    Slot& s = slots_[node];
    const std::uint32_t next = s.wheel_next;
    s.bucket = TimerWheelState::kNoBucket;
    s.wheel_prev = s.wheel_next = kNilSlot;
    heap_push(Entry{s.at, s.seq, s.det_tie, node, s.generation});
    --wheel_.live;
    node = next;
  }
}

void Scheduler::wheel_cascade(int level, int idx) {
  const std::uint16_t b = static_cast<std::uint16_t>(level * kSlotsPerLevel + idx);
  std::uint32_t node = wheel_.head[b];
  wheel_.head[b] = kNilSlot;
  wheel_.clear_bit(level, idx);
  while (node != kNilSlot) {
    Slot& s = slots_[node];
    const std::uint32_t next = s.wheel_next;
    s.wheel_prev = s.wheel_next = kNilSlot;
    wheel_insert(node);  // re-buckets strictly below `level` (still live)
    node = next;
  }
}

void Scheduler::wheel_far_jump() {
  // Only beyond-horizon events remain: jump the cursor to the earliest one
  // and re-bucket the whole far set (at least one lands on the wheel).
  std::uint32_t node = wheel_.head[TimerWheelState::kFarBucket];
  assert(node != kNilSlot);
  std::int64_t min_tick = INT64_MAX;
  for (std::uint32_t n = node; n != kNilSlot; n = slots_[n].wheel_next) {
    min_tick = std::min(min_tick, TimerWheelState::tick_of(slots_[n].at.ns()));
  }
  wheel_.cursor = min_tick;
  wheel_.head[TimerWheelState::kFarBucket] = kNilSlot;
  while (node != kNilSlot) {
    Slot& s = slots_[node];
    const std::uint32_t next = s.wheel_next;
    s.wheel_prev = s.wheel_next = kNilSlot;
    wheel_insert(node);
    node = next;
  }
}

}  // namespace tcpdyn::sim
