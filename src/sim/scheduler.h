// Event scheduler: a 4-ary min-heap of deterministic keys (firing time,
// birth time, det tie — see sim/det_context.h) over a slab of
// generation-counted event slots. The key is a strict total order, so
// simultaneous events always fire in the same order, and it is a function
// of per-entity event histories only, so a serial run and a sharded run at
// any shard count dispatch every event in the same order.
//
// Steady-state operation is allocation-free: actions are stored in a
// small-buffer callable inside slab slots that are recycled through a free
// list, heap entries are 32-byte PODs that a sift writes once per level
// (into a moving hole, never by swapping), and cancellation is an O(1)
// generation bump — no per-event shared_ptr, no std::function heap traffic.
// Cancelled events leave a tombstone in the heap that is dropped lazily when
// it surfaces, with a compaction sweep bounding tombstone build-up under
// cancel-heavy workloads.
//
// While many events are pending, new ones are staged on a hierarchical
// timer wheel (sim/timer_wheel.h: O(1) arm/cancel, no tombstones) and are
// merged into the heap only when the wheel cursor reaches their slot; while
// few are pending, every event goes straight into the heap. The choice is
// made per insert from the live pending count (kWheelStagingMin), and it
// never changes the order: the heap uses one key comparator, and every
// wheel entry is merged before it could become the minimum, so a heap
// entry past the cursor is as exact as one below it (DESIGN.md §13.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/det_context.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"
#include "util/inline_function.h"

namespace tcpdyn::sim {

class Scheduler;

// Largest capture (a Packet plus a pointer) that the network and transport
// layers schedule; sized so every hot-path lambda stays inline. Call sites
// whose captures must not spill enforce it via Scheduler::Action::fits.
inline constexpr std::size_t kActionInlineCapacity = 72;

// Handle to a scheduled event; allows cancellation. Default-constructed
// handles are inert. Handles are cheap to copy ({slot, generation} pair) and
// must not outlive the scheduler that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly or on
  // an inert handle.
  void cancel();

  // True if the event is still queued (not fired, not cancelled).
  bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot,
              std::uint32_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;  // null => inert
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  using Action = util::InlineAction<kActionInlineCapacity>;

  // An insert is staged on the wheel when, counting it, more than this
  // many events are pending and its tick is at or past the wheel cursor;
  // every other insert goes into the heap. The paper's dumbbells stay
  // below it (at most ~120 pending: heap only); meshes and incast churn
  // hold a thousand to 200k pending events and stage nearly all of them.
  static constexpr std::size_t kWheelStagingMin = 256;

  // Enqueues `action` to run at absolute time `at` (>= the time of the last
  // event popped), ordered by the key (at, seq, det_tie): seq is the event's
  // birth time, det_tie a per-entity draw from det_tie_next. `ctx` is
  // published as the active context when the event runs.
  EventHandle schedule_at(Time at, std::uint64_t seq, std::uint64_t det_tie,
                          DetContext* ctx, Action&& action);

  // Registers the location where run_next publishes each dispatched event's
  // DetContext (the owning Simulator's active context).
  void bind_active_context(DetContext** ref) { active_ref_ = ref; }

  // True when no live (non-cancelled, non-fired) events remain. O(1) and
  // genuinely const: the live count is maintained at cancel/fire time.
  bool empty() const { return live_events_ == 0; }
  std::size_t size() const { return live_events_; }

  // Time of the earliest pending (non-cancelled) event; Time::max() if none.
  Time next_time();

  // Pops and runs the earliest pending event, returning its time.
  // Precondition: !empty().
  Time run_next();

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;

  // One slab slot. `generation` advances every time the slot's event is
  // cancelled or fired, invalidating outstanding handles and heap entries
  // that still reference the old incarnation. The wheel_* fields thread the
  // slot into a timer-wheel bucket's doubly-linked list while the event is
  // staged there; `bucket == kNoBucket` means the event lives in the heap.
  struct Slot {
    Action action;
    Time at;                    // wheel only: absolute firing time
    std::uint64_t seq = 0;      // wheel only: birth time (second key)
    std::uint64_t det_tie = 0;  // wheel only: det tie (third key)
    DetContext* ctx = nullptr;  // dispatch context
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    std::uint32_t wheel_prev = kNilSlot;
    std::uint32_t wheel_next = kNilSlot;
    std::uint16_t bucket = TimerWheelState::kNoBucket;
  };

  // Heap entry: POD, so moves during sift are cheap. It carries the whole
  // key, fixed at insertion: a tombstone keeps its key after its slot is
  // recycled, so the heap stays ordered around it.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint64_t det_tie;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.det_tie < b.det_tie;
  }

  bool is_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }
  void cancel(std::uint32_t slot, std::uint32_t generation);

  std::uint32_t acquire_slot();
  // Invalidates handles, releases the action, and recycles the slot.
  void release_slot(std::uint32_t slot);

  // The dispatch heap is 4-ary: half the depth of a binary heap, and a
  // node's four 32-byte children sit in 128 contiguous bytes.
  static constexpr std::size_t kHeapArity = 4;

  void heap_push(Entry entry);
  void heap_pop_front();
  // Fills the hole at `hole` with `entry`, moving smaller children up.
  void heap_sift_down(std::size_t hole, Entry entry);
  // Drops tombstones (entries whose slot generation moved on) off the top.
  void drop_dead_front();
  // Removes all tombstones when they outnumber live entries; O(n), amortized
  // O(1) per cancel, and order-preserving (the comparator is a total order).
  void maybe_compact();

  // Wheel staging. Invariant between calls: every live event whose time is
  // below the wheel cursor is in the heap, so a heap front strictly below
  // the cursor is the global minimum.
  void wheel_insert(std::uint32_t slot);         // buckets slots_[slot] by its at
  void wheel_unlink(std::uint32_t slot);         // O(1) removal (cancel path)
  void wheel_settle();                           // restore the invariant
  void wheel_advance_step();                     // consume/cascade one bucket
  void wheel_consume_level0(int idx);            // bucket -> dispatch heap
  void wheel_cascade(int level, int idx);        // bucket -> lower levels
  void wheel_far_jump();                         // re-bucket beyond-horizon set

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_events_ = 0;
  DetContext** active_ref_ = nullptr;
  TimerWheelState wheel_;
};

}  // namespace tcpdyn::sim
