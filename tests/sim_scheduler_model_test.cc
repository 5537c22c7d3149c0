// Tests for the scheduler's firing order and the RAII sim::Timer handle.
// The load-bearing property is that the heap fires every event in key
// order, (firing time, birth, tie), whatever mix of arms, cancels and
// re-arms reached it: the randomized workloads compare the full firing
// trace against a reference model, a std::set ordered by the scheduler's
// key, at pending sets from a handful of events to about 5,000 (the peak
// of the largest benchmark mesh). The unit cases arm kFillers far-future
// events first, so their own events sit among a few hundred others in a
// heap several levels deep. Larger end-to-end digests live in
// timer_equivalence_test.cc.
#include <gtest/gtest.h>

#include <cstddef>
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

namespace tcpdyn::sim {
namespace {

// Far-future events a unit case arms before its own, and the pending count
// run_oscillating keeps crossing.
constexpr std::size_t kFillers = 256;

// Arms kFillers no-op events at distinct times an hour out, after every
// test's own events, so the test's events are pushed into a populated heap
// and must sift past the fillers.
void arm_fillers(FifoScheduler& sched) {
  for (std::size_t i = 0; i < kFillers; ++i) {
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

// 400 events across many time scales (exact ties, sub-microsecond
// neighbours, spans of milliseconds to tens of seconds, outliers up to
// 2^60 ns), every third cancelled, then re-scheduling from inside the run,
// so the heap holds tombstones among live events of every scale while it
// drains.
void run_mixed_scales(ModelCheck& m, std::uint64_t seed) {
  Rng rng{seed};
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t r = rng.next();
    std::int64_t at_ns = 0;
    switch (r % 4) {
      case 0: at_ns = static_cast<std::int64_t>(r % 2048); break;        // ties
      case 1: at_ns = static_cast<std::int64_t>(r % 3'000'000); break;   // ms
      case 2: at_ns = static_cast<std::int64_t>(r % 40'000'000'000); break;  // s
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

// Keeps the pending count oscillating around kFillers: each fired event
// re-arms more events while below it and fewer while above, within a dense
// few-millisecond window (many events per microsecond, exact ties), and
// now and then cancels a random earlier event, so the heap grows and
// shrinks across a level boundary with tombstones inside it. Returns how
// many times the count crossed kFillers upward.
int run_oscillating(ModelCheck& m, std::uint64_t seed) {
  Rng rng{seed};
  for (std::size_t i = 0; i + 16 < kFillers; ++i) {
    m.arm(static_cast<std::int64_t>(rng.next() % 3'000'000));
  }
  int crossings = 0;
  bool above = false;
  for (int executed = 0; executed < 20'000 && !m.empty(); ++executed) {
    const Time now = m.step();
    const std::uint64_t k = rng.next() % (m.pending() < kFillers ? 4 : 2);
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
    if (!above && m.pending() > kFillers) ++crossings;
    above = m.pending() > kFillers;
  }
  while (!m.empty()) m.step();
  return crossings;
}

// Cancel-heavy, over `rounds` rounds at pending sets up to `top`: each
// round tops the pending set up to `top`, cancels random events until a
// quarter remain, arms up to three fifths of `top`, then fires a tenth of
// it. The cancels leave at least twice as many heap entries as live events,
// with 64 or more entries, at half and again at a quarter of `top` live, so
// compaction and its heapify run twice per round. The arms that follow
// bury the rebuilt heap's last parent under fresh entries instead of
// letting pops move its children to the root, so a parent the heapify left
// out of order still fires out of order.
void run_cancel_heavy(ModelCheck& m, std::uint64_t seed, std::size_t top,
                      int rounds) {
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
  for (int round = 0; round < rounds; ++round) {
    arm_until(top);
    while (m.pending() > top / 4) {
      m.cancel(static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                                  m.armed())));
    }
    arm_until(top * 3 / 5);
    for (std::size_t i = 0; i < top / 10; ++i) now = m.step().ns();
  }
  while (!m.empty()) m.step();
}

TEST(SchedulerModel, FiringOrderMatchesReferenceModel) {
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
    ModelCheck small;
    run_cancel_heavy(small, seed, 200, 60);
    // 60 rounds fire 20 each; the last round's other 100 then drain.
    EXPECT_EQ(small.fired().size(), 60u * 20u + 100u) << "seed " << seed;
    EXPECT_EQ(small.fired(), small.expected()) << "seed " << seed;
  }
  // About 5,000 live events, the peak pending set of the largest benchmark
  // mesh: compaction and its heapify at the heap depth that mesh reaches.
  ModelCheck large;
  run_cancel_heavy(large, 3, 5000, 8);
  // 8 rounds fire 500 each; the last round's other 2,500 then drain.
  EXPECT_EQ(large.fired().size(), 8u * 500u + 2500u);
  EXPECT_EQ(large.fired(), large.expected());
}

TEST(SchedulerModel, CloseTimesFireInTimeOrder) {
  // Two events 400 ns apart, armed latest first, fire in time order.
  FifoScheduler sched;
  arm_fillers(sched);
  std::vector<int> order;
  sched.schedule_at(Time::nanoseconds(700), [&] { order.push_back(2); });
  sched.schedule_at(Time::nanoseconds(300), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerModel, SimultaneousEventsFifo) {
  FifoScheduler sched;
  arm_fillers(sched);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!sched.empty()) sched.run_next();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerModel, CancelIsImmediate) {
  FifoScheduler sched;
  arm_fillers(sched);
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

TEST(SchedulerModel, BoundaryTimesFireInOrder) {
  // Times on either side of power-of-two boundaries (multiples of 1024 ns
  // around 2^18 and 2^26 ns) fire exactly on time and in order.
  FifoScheduler sched;
  arm_fillers(sched);
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

TEST(SchedulerModel, SameTimeArmedLaterFiresFifo) {
  // E1 is armed at the start; an earlier event arms E2 for E1's exact time
  // and birth once the clock has moved on. Same firing time and birth:
  // FIFO on the tie, so E1 (armed first) fires first.
  FifoScheduler sched;
  arm_fillers(sched);
  const std::int64_t kTick = 1 << 10;
  std::vector<int> order;
  const Time t_shared = Time::nanoseconds(352 * kTick + 500);
  sched.schedule_at(t_shared, [&] { order.push_back(1); });
  sched.schedule_at(Time::nanoseconds(255 * kTick),
                    [&] { sched.schedule_at(t_shared, [&] { order.push_back(2); }); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerModel, FarFutureEvents) {
  // Events 2^59 ns (about 18 simulated years) out still fire in order.
  FifoScheduler sched;
  arm_fillers(sched);
  std::vector<int> order;
  const std::int64_t far = std::int64_t{1} << 59;
  sched.schedule_at(Time::nanoseconds(far + 5000), [&] { order.push_back(3); });
  sched.schedule_at(Time::nanoseconds(far), [&] { order.push_back(2); });
  sched.schedule_at(Time::nanoseconds(100), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerModel, HeavyRearmFiresOnlyLastShot) {
  // The RTO pattern: cancel + re-schedule a far deadline on every "ACK".
  // Each cancel leaves a tombstone that compaction later drops; size()
  // counts live events only, and only the last shot fires.
  FifoScheduler sched;
  arm_fillers(sched);
  EventHandle rto;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    rto.cancel();
    rto = sched.schedule_at(Time::milliseconds(500 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sched.size(), kFillers + 1);
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
