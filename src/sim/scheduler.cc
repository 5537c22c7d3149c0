#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcpdyn::sim {

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
  heap_push(Entry{at, seq, det_tie, slot, s.generation});
  return EventHandle(this, slot, s.generation);
}

void Scheduler::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!is_pending(slot, generation)) return;  // already fired or cancelled
  release_slot(slot);
  --live_events_;
  // The heap entry stays behind as a tombstone (its generation no longer
  // matches) and is dropped when it surfaces, or by compaction.
  maybe_compact();
}

Time Scheduler::next_time() {
  drop_dead_front();
  return heap_.empty() ? Time::max() : heap_.front().at;
}

Time Scheduler::run_next() {
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
  // masse (e.g. tearing down many connections' retransmit timers) or that
  // re-arm a far deadline on every ACK (an RTO timer).
  if (heap_.size() < 64 || heap_.size() < 2 * live_events_) return;
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

}  // namespace tcpdyn::sim
