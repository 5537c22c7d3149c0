// Tests for the simulation substrate: Time arithmetic, the event scheduler
// (ordering, ties, cancellation), and the Simulator facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fifo_scheduler.h"
#include "sim/det_context.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace tcpdyn::sim {
namespace {

TEST(Time, Constructors) {
  EXPECT_EQ(Time::nanoseconds(5).ns(), 5);
  EXPECT_EQ(Time::microseconds(3).ns(), 3000);
  EXPECT_EQ(Time::milliseconds(2).ns(), 2'000'000);
  EXPECT_EQ(Time::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Time::zero().ns(), 0);
  EXPECT_DOUBLE_EQ(Time::seconds(0.25).sec(), 0.25);
}

TEST(Time, TransmissionTimes) {
  // The paper's numbers: 500 B at 50 Kbps = 80 ms; 50 B ACK = 8 ms;
  // 500 B at 10 Mbps = 0.4 ms.
  EXPECT_EQ(Time::transmission(500, 50'000).ns(), 80'000'000);
  EXPECT_EQ(Time::transmission(50, 50'000).ns(), 8'000'000);
  EXPECT_EQ(Time::transmission(500, 10'000'000).ns(), 400'000);
  EXPECT_EQ(Time::transmission(0, 50'000).ns(), 0);
}

TEST(Time, Arithmetic) {
  const Time a = Time::seconds(1.0);
  const Time b = Time::milliseconds(500);
  EXPECT_EQ((a + b).ns(), 1'500'000'000);
  EXPECT_EQ((a - b).ns(), 500'000'000);
  EXPECT_EQ((b * 3).ns(), 1'500'000'000);
  EXPECT_EQ((a / 4).ns(), 250'000'000);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(Scheduler, RunsInTimeOrder) {
  FifoScheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(3.0), [&] { order.push_back(3); });
  sched.schedule_at(Time::seconds(1.0), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(2.0), [&] { order.push_back(2); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SimultaneousEventsFifo) {
  FifoScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!sched.empty()) sched.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, Cancellation) {
  FifoScheduler sched;
  int fired = 0;
  EventHandle h1 = sched.schedule_at(Time::seconds(1.0), [&] { ++fired; });
  EventHandle h2 = sched.schedule_at(Time::seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(h1.pending());
  h1.cancel();
  EXPECT_FALSE(h1.pending());
  h1.cancel();  // idempotent
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h2.pending());  // fired events are no longer pending
}

TEST(Scheduler, InertHandleIsSafe) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(Scheduler, NextTimeSkipsCancelled) {
  FifoScheduler sched;
  EventHandle h = sched.schedule_at(Time::seconds(1.0), [] {});
  sched.schedule_at(Time::seconds(5.0), [] {});
  h.cancel();
  EXPECT_EQ(sched.next_time(), Time::seconds(5.0));
}

TEST(Scheduler, EmptyAfterAllCancelled) {
  FifoScheduler sched;
  EventHandle h = sched.schedule_at(Time::seconds(1.0), [] {});
  EXPECT_FALSE(sched.empty());
  h.cancel();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.next_time(), Time::max());
}

TEST(Scheduler, CancelHeavyLeavesSchedulerEmpty) {
  // Regression test: empty() must report true purely from bookkeeping after
  // mass cancellation — without running any event to flush tombstones (the
  // old implementation const_cast-scrubbed the queue inside empty()).
  FifoScheduler sched;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 10'000;
  handles.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(sched.schedule_at(
        Time::microseconds((i * 7919) % 100'000), [] { FAIL(); }));
  }
  EXPECT_EQ(sched.size(), static_cast<std::size_t>(kEvents));
  for (EventHandle& h : handles) h.cancel();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.size(), 0u);
  EXPECT_EQ(sched.next_time(), Time::max());
  for (const EventHandle& h : handles) EXPECT_FALSE(h.pending());
}

TEST(Scheduler, SlotReuseDoesNotResurrectOldHandles) {
  // After an event fires or is cancelled its slab slot is recycled; a stale
  // handle to the old incarnation must stay dead and must not cancel the
  // new occupant.
  FifoScheduler sched;
  int fired = 0;
  EventHandle old_handle =
      sched.schedule_at(Time::seconds(1.0), [&] { ++fired; });
  old_handle.cancel();
  // Likely reuses the slot just released.
  EventHandle fresh = sched.schedule_at(Time::seconds(2.0), [&] { ++fired; });
  EXPECT_FALSE(old_handle.pending());
  old_handle.cancel();  // must be a no-op on the recycled slot
  EXPECT_TRUE(fresh.pending());
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, OrderSurvivesInterleavedCancellation) {
  // Cancel more than half the events to force tombstone compaction, then
  // verify the survivors still run in exact (time, insertion) order.
  FifoScheduler sched;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 1'000; ++i) {
    const Time t = Time::microseconds((i * 31) % 97);  // many ties
    if (i % 3 == 0) {
      sched.schedule_at(t, [&order, i] { order.push_back(i); });
    } else {
      doomed.push_back(sched.schedule_at(t, [] { FAIL(); }));
    }
  }
  for (EventHandle& h : doomed) h.cancel();
  std::vector<Time> times;
  while (!sched.empty()) times.push_back(sched.run_next());
  ASSERT_EQ(order.size(), 334u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  // FIFO among equal times: survivors with the same timestamp must appear in
  // insertion order. Equal times recur every 97 steps of i*31 mod 97.
  for (std::size_t i = 1; i < order.size(); ++i) {
    if ((order[i] * 31) % 97 == (order[i - 1] * 31) % 97) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

TEST(Scheduler, ActionSeesItselfRetired) {
  // run_next() retires the slot before invoking the action, so a timer
  // action observes pending() == false and can immediately re-arm through
  // the same handle variable — the pattern the transport timers rely on.
  FifoScheduler sched;
  EventHandle handle;
  bool rearmed_fired = false;
  handle = sched.schedule_at(Time::seconds(1.0), [&] {
    EXPECT_FALSE(handle.pending());
    handle = sched.schedule_at(Time::seconds(2.0),
                               [&] { rearmed_fired = true; });
  });
  while (!sched.empty()) sched.run_next();
  EXPECT_TRUE(rearmed_fired);
}

TEST(DetContext, ExhaustedTieCounterThrows) {
  // A context one emission short of 2^40 has exactly one unique tie left.
  constexpr std::uint64_t kLast = (std::uint64_t{1} << kDetTieEmittedBits) - 1;
  DetContext ctx{7, kLast};
  EXPECT_EQ(det_tie_next(ctx),
            (std::uint64_t{7} << kDetTieEmittedBits) | kLast);
  try {
    det_tie_next(ctx);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_STREQ(e.what(),
                 "det-key context 7 emitted 2^40 events; its ties are "
                 "exhausted");
  }
}

TEST(DetContext, ReservationMatchesDrawsOneByOne) {
  DetContext drawn{5, 3};
  DetContext reserved{5, 3};
  const std::uint64_t first = det_tie_reserve(reserved, 4);
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(det_tie_next(drawn), first + k);
  }
  EXPECT_EQ(reserved.emitted, drawn.emitted);
  det_tie_reserve(reserved, 0);  // reserves nothing
  EXPECT_EQ(det_tie_next(reserved), det_tie_next(drawn));
}

TEST(DetContext, ReservationPastTheBoundThrows) {
  // Two ties are left: reserving three throws as the third draw would,
  // reserving both succeeds, and then one more throws.
  constexpr std::uint64_t kTies = std::uint64_t{1} << kDetTieEmittedBits;
  DetContext two{7, kTies - 2};
  EXPECT_THROW(det_tie_reserve(two, 3), std::overflow_error);
  EXPECT_EQ(det_tie_reserve(two, 2),
            (std::uint64_t{7} << kDetTieEmittedBits) | (kTies - 2));
  EXPECT_EQ(two.emitted, kTies);
  try {
    det_tie_reserve(two, 1);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_STREQ(e.what(),
                 "det-key context 7 emitted 2^40 events; its ties are "
                 "exhausted");
  }
  DetContext fresh{1, 0};
  EXPECT_THROW(det_tie_reserve(fresh, ~std::uint64_t{0}), std::overflow_error);
}

TEST(Simulator, SameTimeEventsOrderByBirthThenContext) {
  // The deterministic key: firing time, then birth time, then the emitting
  // context's id, then its emission count. The engine context sorts after
  // every node at the same (firing, birth) time.
  Simulator sim;
  DetContext a{1};
  DetContext b{2};
  std::vector<int> order;
  const auto record = [&order](int i) {
    return [&order, i] { order.push_back(i); };
  };
  const Time t = Time::seconds(2.0);
  sim.set_det_context(&b);
  sim.schedule_at(t, record(3));
  sim.set_det_context(&a);
  sim.schedule_at(t, record(1));
  sim.schedule_at(t, record(2));
  sim.schedule(Time::seconds(1.0), [&] { sim.schedule_at(t, record(5)); });
  sim.activate_engine_context();
  sim.schedule_at(t, record(4));
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Simulator, TombstoneKeepsItsKeyWhenItsSlotIsReused) {
  // All nine live events tie on (firing, birth), so only the det tie orders
  // them. Cancelling a2 frees its slot, and d's first event takes it while
  // a2's tombstone is still in the heap; the tombstone must keep a2's key,
  // or c0 can sift past it to the front ahead of b0.
  Simulator sim;
  DetContext a{1};
  DetContext b{2};
  DetContext c{3};
  DetContext d{4};
  std::vector<int> order;
  const auto record = [&](DetContext& ctx, int i) {
    sim.set_det_context(&ctx);
    return sim.schedule_at(Time::seconds(1.0), [&order, id = ctx.id, i] {
      order.push_back(static_cast<int>(id) * 10 + i);
    });
  };
  record(a, 0);
  EventHandle a1 = record(a, 1);
  record(a, 2);
  record(b, 0);
  a1.cancel();
  for (int i = 0; i < 5; ++i) record(d, i);
  record(c, 0);
  sim.run_all();
  EXPECT_EQ(order,
            (std::vector<int>{10, 12, 20, 30, 40, 41, 42, 43, 44}));
}

TEST(Simulator, ClockAdvancesBeforeDispatch) {
  // Regression test for the stale-clock bug: an event's action must observe
  // now() == its own firing time, and relative scheduling inside the action
  // must be relative to that time.
  Simulator sim;
  Time seen_first = Time::zero();
  Time seen_second = Time::zero();
  sim.schedule(Time::seconds(1.0), [&] {
    seen_first = sim.now();
    sim.schedule(Time::seconds(2.0), [&] { seen_second = sim.now(); });
  });
  sim.run_until(Time::seconds(10.0));
  EXPECT_EQ(seen_first, Time::seconds(1.0));
  EXPECT_EQ(seen_second, Time::seconds(3.0));
}

TEST(Simulator, RunUntilExecutesEventsAtBoundary) {
  Simulator sim;
  bool at_boundary = false;
  bool beyond = false;
  sim.schedule(Time::seconds(5.0), [&] { at_boundary = true; });
  sim.schedule(Time::seconds(5.1), [&] { beyond = true; });
  sim.run_until(Time::seconds(5.0));
  EXPECT_TRUE(at_boundary);
  EXPECT_FALSE(beyond);
  EXPECT_EQ(sim.now(), Time::seconds(5.0));
}

TEST(Simulator, ClockReachesUntilWhenIdle) {
  Simulator sim;
  sim.run_until(Time::seconds(7.0));
  EXPECT_EQ(sim.now(), Time::seconds(7.0));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule(Time::seconds(1.0), [&] {
    sim.schedule(Time::seconds(-5.0), [&] {
      ran = true;
      EXPECT_EQ(sim.now(), Time::seconds(1.0));
    });
  });
  sim.run_until(Time::seconds(2.0));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Time::seconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run_until(Time::seconds(100.0));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), Time::seconds(3.0));
}

TEST(Simulator, RunAllDrainsQueue) {
  Simulator sim;
  int count = 0;
  sim.schedule(Time::seconds(1.0), [&] {
    ++count;
    sim.schedule(Time::seconds(1.0), [&] { ++count; });
  });
  sim.run_all();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), Time::seconds(2.0));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Time last = Time::zero();
  int count = 0;
  for (int i = 0; i < 10000; ++i) {
    // Pseudo-random but deterministic times.
    const Time t = Time::microseconds((i * 7919) % 100000);
    sim.schedule(t, [&, t] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
      ++count;
    });
  }
  sim.run_until(Time::seconds(1.0));
  EXPECT_EQ(count, 10000);
}

}  // namespace
}  // namespace tcpdyn::sim
