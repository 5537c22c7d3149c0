// Tests for the scheduler's timer-wheel staging and the RAII sim::Timer
// handle. The scheduler stages an insert on the wheel only while more than
// Scheduler::kWheelStagingMin events are pending, so each wheel unit test
// first arms that many far-future fillers (stage_on_wheel). The
// load-bearing property is that staging never changes the firing order:
// the randomized workloads compare the full firing trace against a
// reference model, a std::set ordered by the scheduler's key. Larger
// end-to-end digests live in timer_equivalence_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
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

// Arms kWheelStagingMin no-op events at distinct times an hour out, after
// every test's own events, so the pending set is above the staging
// threshold and the test's own inserts are staged on the wheel.
void stage_on_wheel(FifoScheduler& sched) {
  for (std::size_t i = 0; i < Scheduler::kWheelStagingMin; ++i) {
    sched.schedule_at(
        Time::seconds(3600.0) + Time::nanoseconds(static_cast<std::int64_t>(i)),
        [] {});
  }
}

// A deterministic xorshift generator, so a seed means the same workload
// across library versions.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// A scheduler and a reference model of it, driven in lockstep. The model
// is a std::set of (firing time, birth, tie) in the scheduler's key order,
// with erase on cancel, so its front is the event that must fire next.
// FifoScheduler draws ties in insertion order, so an event's id is its tie.
class ModelCheck {
 public:
  // Arms an event in both; returns its id.
  int arm(std::int64_t at_ns, Time birth = Time::zero()) {
    const int id = static_cast<int>(keys_.size());
    keys_.emplace_back(at_ns, birth.ns(), keys_.size());
    model_.insert(keys_.back());
    handles_.push_back(sched_.schedule_at(
        Time::nanoseconds(at_ns), [this, id] { fired_.push_back(id); },
        birth));
    return id;
  }
  // Cancels event `id` in both if it is still pending.
  void cancel(int id) {
    EventHandle& h = handles_[static_cast<std::size_t>(id)];
    if (!h.pending()) return;
    h.cancel();
    model_.erase(keys_[static_cast<std::size_t>(id)]);
  }
  // Fires the scheduler's next event; the model records the one it
  // predicts.
  Time step() {
    expected_.push_back(static_cast<int>(std::get<2>(*model_.begin())));
    model_.erase(model_.begin());
    return sched_.run_next();
  }
  int armed() const { return static_cast<int>(keys_.size()); }
  std::size_t pending() const { return sched_.size(); }
  bool empty() const { return sched_.empty(); }
  const std::vector<int>& fired() const { return fired_; }
  const std::vector<int>& expected() const { return expected_; }

 private:
  using Key = std::tuple<std::int64_t, std::int64_t, std::uint64_t>;
  FifoScheduler sched_;
  std::vector<Key> keys_;  // by id
  std::set<Key> model_;
  std::vector<EventHandle> handles_;
  std::vector<int> fired_;
  std::vector<int> expected_;
};

// 400 events across many time scales (same-tick ties, level-0
// neighbours, mid-level spans, far-future outliers), every third cancelled,
// then re-scheduling from inside the run. The first 256 inserts go to the
// heap and the next 144 are staged on the wheel; once cancels and firing
// drain the set below the threshold, re-arms go to the heap again while
// staged events are still pending.
void run_mixed_scales(ModelCheck& m, std::uint64_t seed) {
  Rng rng{seed};
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t r = rng.next();
    std::int64_t at_ns = 0;
    switch (r % 4) {
      case 0: at_ns = static_cast<std::int64_t>(r % 2048); break;        // ties & level 0
      case 1: at_ns = static_cast<std::int64_t>(r % 3'000'000); break;   // levels 0-2
      case 2: at_ns = static_cast<std::int64_t>(r % 40'000'000'000); break;  // deep levels
      default: at_ns = static_cast<std::int64_t>(r % (std::int64_t{1} << 60)); break;  // far
    }
    m.arm(at_ns);
  }
  for (int id = 0; id < 400; id += 3) m.cancel(id);
  int executed = 0;
  while (!m.empty()) {
    const Time now = m.step();
    if (++executed % 17 == 0 && m.armed() < 600) {
      m.arm(now.ns() + static_cast<std::int64_t>(rng.next() % 5'000'000), now);
    }
  }
}

// Keeps the pending count oscillating around kWheelStagingMin: each fired
// event re-arms more events while below it and fewer while above, within a
// dense few-millisecond window (many events per wheel block, exact ties),
// and now and then cancels a random earlier event. Returns how many times
// the count crossed the threshold upward.
int run_oscillating(ModelCheck& m, std::uint64_t seed) {
  constexpr std::size_t kMin = Scheduler::kWheelStagingMin;
  Rng rng{seed};
  for (std::size_t i = 0; i + 16 < kMin; ++i) {
    m.arm(static_cast<std::int64_t>(rng.next() % 3'000'000));
  }
  int crossings = 0;
  bool above = false;
  for (int executed = 0; executed < 20'000 && !m.empty(); ++executed) {
    const Time now = m.step();
    const std::uint64_t k = rng.next() % (m.pending() < kMin ? 4 : 2);
    for (std::uint64_t j = 0; j < k; ++j) {
      const std::uint64_t r = rng.next();
      // One in four re-arms ties exactly with `now` (a same-time child).
      const std::int64_t dt =
          r % 4 == 0 ? 0 : static_cast<std::int64_t>(r % 3'000'000);
      m.arm(now.ns() + dt, now);
    }
    if (rng.next() % 8 == 0) {
      const std::uint64_t armed = static_cast<std::uint64_t>(m.armed());
      m.cancel(static_cast<int>(rng.next() % armed));
    }
    if (!above && m.pending() > kMin) ++crossings;
    above = m.pending() > kMin;
  }
  while (!m.empty()) m.step();
  return crossings;
}

// Heap only, cancel-heavy: each round tops the pending set up to 200 (below
// kWheelStagingMin, so nothing is staged), cancels random events until 50
// remain, arms 70 more, then fires 20. The cancels leave at least twice as
// many heap entries as live events, with 64 or more entries, at 100 and
// again at 50 live, so compaction and its heapify run twice per round. The
// arms that follow bury the rebuilt heap's last parent under fresh entries
// instead of letting pops move its children to the root, so a parent the
// heapify left out of order still fires out of order.
void run_cancel_heavy(ModelCheck& m, std::uint64_t seed) {
  Rng rng{seed};
  std::int64_t now = 0;
  const auto arm_until = [&](std::size_t pending) {
    while (m.pending() < pending) {
      const std::uint64_t r = rng.next();
      // One in four lands in the first 64 ns, where times tie.
      const std::int64_t at =
          now + static_cast<std::int64_t>(r % 4 == 0 ? r % 64 : r % 10'000'000);
      m.arm(at, Time::nanoseconds(now));
    }
  };
  for (int round = 0; round < 60; ++round) {
    arm_until(200);
    while (m.pending() > 50) {
      m.cancel(static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                                  m.armed())));
    }
    arm_until(120);
    for (int i = 0; i < 20; ++i) now = m.step().ns();
  }
  while (!m.empty()) m.step();
}

TEST(TimerWheel, FiringOrderMatchesReferenceModel) {
  for (const std::uint64_t seed : {1u, 42u, 9001u}) {
    ModelCheck m;
    run_mixed_scales(m, seed);
    // 400 armed, every third (134) cancelled, plus the re-arms.
    EXPECT_GT(m.fired().size(), 266u) << "seed " << seed;
    EXPECT_EQ(m.fired(), m.expected()) << "seed " << seed;
  }
  ModelCheck m;
  EXPECT_GT(run_oscillating(m, 7), 10);
  EXPECT_GT(m.fired().size(), 20'000u);
  EXPECT_EQ(m.fired(), m.expected());
  for (const std::uint64_t seed : {5u, 77u}) {
    ModelCheck heap_only;
    run_cancel_heavy(heap_only, seed);
    // 60 rounds fire 20 each; the last round's other 100 then drain.
    EXPECT_EQ(heap_only.fired().size(), 60u * 20u + 100u) << "seed " << seed;
    EXPECT_EQ(heap_only.fired(), heap_only.expected()) << "seed " << seed;
  }
}

TEST(TimerWheel, SameTickDifferentTimesOrdered) {
  // Two events inside one wheel tick (1024 ns) must still fire in time
  // order: the wheel resolves sub-tick order through the dispatch heap.
  FifoScheduler sched;
  stage_on_wheel(sched);
  std::vector<int> order;
  sched.schedule_at(Time::nanoseconds(700), [&] { order.push_back(2); });
  sched.schedule_at(Time::nanoseconds(300), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, SimultaneousEventsFifo) {
  FifoScheduler sched;
  stage_on_wheel(sched);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!sched.empty()) sched.run_next();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerWheel, CancelInBucketIsImmediate) {
  FifoScheduler sched;
  stage_on_wheel(sched);
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
  FifoScheduler sched;
  stage_on_wheel(sched);
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
  FifoScheduler sched;
  stage_on_wheel(sched);
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
  FifoScheduler sched;
  stage_on_wheel(sched);
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
  FifoScheduler sched;
  stage_on_wheel(sched);
  EventHandle rto;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    rto.cancel();
    rto = sched.schedule_at(Time::milliseconds(500 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sched.size(), Scheduler::kWheelStagingMin + 1);
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
