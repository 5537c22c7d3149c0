// Tests for the hierarchical timer-wheel scheduler backend and the RAII
// sim::Timer handle. The load-bearing property is byte-identical firing
// order with the slab backend — the wheel only changes how pending events
// are *stored*, never the key dispatch order — so most tests here
// are differential: run the same workload on both backends and demand the
// same trace. Larger end-to-end digests live in cc_equivalence_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fifo_scheduler.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer.h"
#include "sim/timer_wheel.h"

namespace tcpdyn::sim {
namespace {

TEST(TimerBackendParse, NamesRoundTrip) {
  EXPECT_EQ(parse_timer_backend("slab"), TimerBackend::kSlab);
  EXPECT_EQ(parse_timer_backend("wheel"), TimerBackend::kWheel);
  EXPECT_EQ(parse_timer_backend("bogus"), std::nullopt);
  EXPECT_EQ(std::string(to_string(TimerBackend::kSlab)), "slab");
  EXPECT_EQ(std::string(to_string(TimerBackend::kWheel)), "wheel");
}

TEST(TimerWheelState, BucketSelection) {
  TimerWheelState w;  // cursor = 0
  // Level 0: ticks within the first 256.
  EXPECT_EQ(w.bucket_for(0), 0);
  EXPECT_EQ(w.bucket_for(1), 1);
  EXPECT_EQ(w.bucket_for(255), 255);
  // Level 1 starts where tick and cursor first differ above bit 7.
  EXPECT_EQ(w.bucket_for(256), TimerWheelState::kSlotsPerLevel + 1);
  EXPECT_EQ(w.bucket_for(511), TimerWheelState::kSlotsPerLevel + 1);
  EXPECT_EQ(w.bucket_for(512), TimerWheelState::kSlotsPerLevel + 2);
  // Level 2.
  EXPECT_EQ(w.bucket_for(65536), 2 * TimerWheelState::kSlotsPerLevel + 1);
  // Beyond the wheel horizon: the far bucket.
  EXPECT_EQ(w.bucket_for(std::int64_t{1} << 50), TimerWheelState::kFarBucket);
}

// A deterministic xorshift generator so both backends see one identical
// workload (std::mt19937 would also do, but this keeps the test obviously
// seed-stable across library versions).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// Drives one randomized schedule/cancel/fire workload against a Scheduler
// and returns the full firing trace as (event id, fire time ns).
std::vector<std::pair<int, std::int64_t>> run_workload(TimerBackend backend,
                                                       std::uint64_t seed) {
  FifoScheduler sched(backend);
  Rng rng{seed};
  std::vector<std::pair<int, std::int64_t>> trace;
  std::vector<EventHandle> handles;
  int next_id = 0;

  // Seed a batch of events across many time scales: same-tick ties,
  // level-0 neighbours, mid-level spans, and far-future outliers.
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t r = rng.next();
    std::int64_t at_ns = 0;
    switch (r % 4) {
      case 0: at_ns = static_cast<std::int64_t>(r % 2048); break;        // ties & level 0
      case 1: at_ns = static_cast<std::int64_t>(r % 3'000'000); break;   // levels 0-2
      case 2: at_ns = static_cast<std::int64_t>(r % 40'000'000'000); break;  // deep levels
      default: at_ns = static_cast<std::int64_t>(r % (std::int64_t{1} << 60)); break;  // far
    }
    const int id = next_id++;
    handles.push_back(
        sched.schedule_at(Time::nanoseconds(at_ns), [&trace, id, at_ns] {
          trace.emplace_back(id, at_ns);
        }));
  }
  // Cancel a deterministic subset before running (exercises wheel unlink).
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();

  // Run, re-scheduling from inside events now and then (exercises inserting
  // at/near the cursor while dispatching, and cascades mid-run).
  int executed = 0;
  while (!sched.empty()) {
    const Time now = sched.run_next();
    if (++executed % 17 == 0 && next_id < 600) {
      const std::uint64_t r = rng.next();
      const std::int64_t at_ns =
          now.ns() + static_cast<std::int64_t>(r % 5'000'000);
      const int id = next_id++;
      sched.schedule_at(
          Time::nanoseconds(at_ns),
          [&trace, id, at_ns] { trace.emplace_back(id, at_ns); }, now);
    }
  }
  return trace;
}

TEST(TimerWheel, FiringOrderMatchesSlab) {
  for (std::uint64_t seed : {1u, 42u, 9001u}) {
    const auto slab = run_workload(TimerBackend::kSlab, seed);
    const auto wheel = run_workload(TimerBackend::kWheel, seed);
    ASSERT_EQ(slab.size(), wheel.size()) << "seed " << seed;
    EXPECT_EQ(slab, wheel) << "seed " << seed;
  }
}

TEST(TimerWheel, SameTickDifferentTimesOrdered) {
  // Two events inside one wheel tick (1024 ns) must still fire in time
  // order: the wheel resolves sub-tick order through the dispatch heap.
  FifoScheduler sched(TimerBackend::kWheel);
  std::vector<int> order;
  sched.schedule_at(Time::nanoseconds(700), [&] { order.push_back(2); });
  sched.schedule_at(Time::nanoseconds(300), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, SimultaneousEventsFifo) {
  FifoScheduler sched(TimerBackend::kWheel);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!sched.empty()) sched.run_next();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerWheel, CancelInBucketIsImmediate) {
  FifoScheduler sched(TimerBackend::kWheel);
  int fired = 0;
  EventHandle h = sched.schedule_at(Time::seconds(5.0), [&] { ++fired; });
  sched.schedule_at(Time::seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  h.cancel();  // idempotent
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CascadeAcrossLevels) {
  // An event far enough out to sit above level 0 must still fire exactly on
  // time after cascading down, including across a level-1 carry boundary.
  FifoScheduler sched(TimerBackend::kWheel);
  std::vector<std::int64_t> fired_at;
  const std::int64_t kTick = 1 << 10;
  for (std::int64_t t : {255 * kTick, 256 * kTick, 257 * kTick,
                         65536 * kTick, (65536 + 255) * kTick}) {
    sched.schedule_at(Time::nanoseconds(t),
                      [&fired_at, t] { fired_at.push_back(t); });
  }
  std::int64_t last = -1;
  while (!sched.empty()) {
    const Time now = sched.run_next();
    EXPECT_GT(now.ns(), last);  // strictly advancing dispatch times
    last = now.ns();
  }
  EXPECT_EQ(fired_at,
            (std::vector<std::int64_t>{255 * kTick, 256 * kTick, 257 * kTick,
                                       65536 * kTick, (65536 + 255) * kTick}));
}

TEST(TimerWheel, StaleBucketAtBlockEntryPreservesFifo) {
  // Regression: a ++cursor carry enters a level-1 block whose bucket is
  // still staged (the carry path never scans upper levels). A fresh insert
  // at the same tick then lands directly in level 0 of the new block; the
  // stale bucket must be cascaded before level 0 is consumed, or the pair
  // fires in reverse key order. Found via the paced-dumbbell digest diff.
  FifoScheduler sched(TimerBackend::kWheel);
  const std::int64_t kTick = 1 << 10;
  std::vector<int> order;
  // E1 in the NEXT level-1 block (tick 352 -> bucket (1,1) at cursor 0).
  const Time t_shared = Time::nanoseconds(352 * kTick + 500);
  sched.schedule_at(t_shared, [&] { order.push_back(1); });
  // A carry driver at the last tick of the current block. From inside its
  // action — after the cursor has carried into block 1 — schedule E2 at the
  // exact same time as E1 (it maps to level 0 of the just-entered block).
  sched.schedule_at(Time::nanoseconds(255 * kTick),
                    [&] { sched.schedule_at(t_shared, [&] { order.push_back(2); }); });
  while (!sched.empty()) sched.run_next();
  // Same firing time and birth: FIFO on the tie, so E1 (armed first) wins.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, FarFutureEvents) {
  // Beyond the six-level horizon (2^48 ticks): the far bucket re-enters the
  // wheel via far_jump and still fires in order.
  FifoScheduler sched(TimerBackend::kWheel);
  std::vector<int> order;
  const std::int64_t far = std::int64_t{1} << 59;
  sched.schedule_at(Time::nanoseconds(far + 5000), [&] { order.push_back(3); });
  sched.schedule_at(Time::nanoseconds(far), [&] { order.push_back(2); });
  sched.schedule_at(Time::nanoseconds(100), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, HeavyRearmLeavesNoTombstones) {
  // The RTO pattern: cancel + re-schedule a far deadline on every "ACK".
  // Bucket unlink must reclaim the slot each time, so the scheduler never
  // accumulates dead entries (size() counts live events only).
  FifoScheduler sched(TimerBackend::kWheel);
  EventHandle rto;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    rto.cancel();
    rto = sched.schedule_at(Time::milliseconds(500 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sched.size(), 1u);
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(fired, 1);
}

// --- RAII Timer handle ------------------------------------------------------

TEST(RaiiTimer, ArmFiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t(sim);
  t.arm(Time::seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), Time::seconds(1.0));
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(RaiiTimer, RearmReplacesPendingShot) {
  Simulator sim;
  int fired = 0;
  Timer t(sim);
  t.arm(Time::seconds(1.0), [&] { fired = 1; });
  t.arm(Time::seconds(2.0), [&] { fired = 2; });
  sim.run_all();
  EXPECT_EQ(fired, 2);  // first shot was replaced, not fired
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(RaiiTimer, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim);
    t.arm(Time::seconds(1.0), [&] { ++fired; });
  }
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(RaiiTimer, RearmAtDedupsIdenticalDeadline) {
  Simulator sim;
  int fired = 0;
  Timer t(sim);
  EXPECT_TRUE(t.rearm_at(Time::seconds(1.0), [&] { ++fired; }));
  // Same deadline while pending: no-op, the original shot stays.
  EXPECT_FALSE(t.rearm_at(Time::seconds(1.0), [&] { fired += 100; }));
  EXPECT_TRUE(t.rearm_at(Time::seconds(2.0), [&] { fired += 10; }));
  sim.run_all();
  EXPECT_EQ(fired, 10);
}

TEST(RaiiTimer, MoveTransfersOwnership) {
  Simulator sim;
  int fired = 0;
  Timer a(sim);
  a.arm(Time::seconds(1.0), [&] { ++fired; });
  Timer b = std::move(a);
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move): spec'd empty
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(RaiiTimer, MoveAssignCancelsPreviousShot) {
  Simulator sim;
  int fired = 0;
  Timer a(sim);
  Timer b(sim);
  a.arm(Time::seconds(1.0), [&] { fired += 1; });
  b.arm(Time::seconds(2.0), [&] { fired += 10; });
  b = std::move(a);  // b's own shot is cancelled; a's shot survives in b
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(RaiiTimer, PastDeadlineClampsToNow) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Time::seconds(1.0), [&] { order.push_back(1); });
  Timer t(sim);
  sim.run_until(Time::seconds(2.0));
  t.arm_at(Time::seconds(0.5), [&] { order.push_back(2); });  // in the past
  EXPECT_EQ(t.deadline(), Time::seconds(0.5));  // reports the requested time
  sim.run_until(Time::seconds(3.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace tcpdyn::sim
