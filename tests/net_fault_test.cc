// Link dynamics and wire impairments: every model in net/fault.h, the
// down/up and rate-change port behavior, and per-model determinism.
#include "net/fault.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_plan.h"
#include "net/port.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tcpdyn::net {
namespace {

struct RecordingSink : Node {
  explicit RecordingSink(sim::Simulator& sim) : Node(99, "sink"), sim(sim) {}
  void receive(Packet pkt) override { arrivals.push_back({sim.now(), pkt}); }
  sim::Simulator& sim;
  std::vector<std::pair<sim::Time, Packet>> arrivals;
};

Packet data_pkt(std::uint32_t seq = 0, std::uint32_t size = 500) {
  Packet p;
  p.kind = PacketKind::kData;
  p.seq = seq;
  p.size_bytes = size;
  p.dst = 99;
  return p;
}

class FaultPortTest : public ::testing::Test {
 protected:
  FaultPortTest()
      : sink(sim),
        port(sim, "p", 50'000, sim::Time::seconds(0.01),
             QdiscConfig::drop_tail(QueueLimit::of(20))) {
    port.set_peer(&sink);
    port.enable_busy_record();
  }
  sim::Simulator sim;
  RecordingSink sink;
  OutputPort port;  // 500 B packet = 80 ms serialization, 10 ms propagation
};

// ---------------------------------------------------------------- models

// The Gilbert-Elliott trajectory is a pure function of the per-link RNG
// stream: replaying the documented draw order against a bare Rng with the
// same seed must reproduce every loss decision and state transition.
TEST(ImpairmentModel, GilbertElliottIsPureFunctionOfStream) {
  Impairment model;
  GilbertElliott ge;
  ge.p_good_to_bad = 0.1;
  ge.p_bad_to_good = 0.3;
  ge.loss_good = 0.02;
  ge.loss_bad = 0.8;
  model.gilbert = ge;
  const std::uint64_t kSeed = 12345;

  ImpairmentState state(model, kSeed);
  util::Rng replica(kSeed);
  bool bad = false;
  int losses = 0;
  for (int i = 0; i < 5000; ++i) {
    // Documented order: loss draw in the current state, then transition
    // draw — both consumed every packet.
    const bool expect_loss =
        replica.next_double() < (bad ? ge.loss_bad : ge.loss_good);
    if (replica.next_double() < (bad ? ge.p_bad_to_good : ge.p_good_to_bad)) {
      bad = !bad;
    }
    const WireDecision d = state.next();
    ASSERT_EQ(d.lost, expect_loss) << "packet " << i;
    ASSERT_EQ(state.in_bad_state(), bad) << "packet " << i;
    if (d.lost) {
      ++losses;
      EXPECT_EQ(d.cause, DropCause::kWireLoss);
    }
  }
  // The bursty regime must actually lose packets (stationary bad fraction
  // 0.1/0.4 = 25%, bad-state loss 80% -> ~20% overall).
  EXPECT_GT(losses, 500);
  EXPECT_LT(losses, 2000);
}

TEST(ImpairmentModel, IidLossMatchesProbability) {
  Impairment model;
  model.loss = 0.3;
  ImpairmentState state(model, 7);
  int losses = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (state.next().lost) ++losses;
  }
  EXPECT_NEAR(static_cast<double>(losses) / kDraws, 0.3, 0.02);
}

TEST(ImpairmentModel, CorruptionUsesItsOwnCause) {
  Impairment model;
  model.corrupt = 1.0;  // every surviving packet corrupts
  ImpairmentState state(model, 7);
  for (int i = 0; i < 10; ++i) {
    const WireDecision d = state.next();
    ASSERT_TRUE(d.lost);
    EXPECT_EQ(d.cause, DropCause::kWireCorrupt);
  }
}

TEST(ImpairmentModel, ReorderDelayNeverExceedsBound) {
  Impairment model;
  model.reorder = 1.0;
  model.reorder_max = sim::Time::milliseconds(25);
  ImpairmentState state(model, 99);
  bool nonzero = false;
  for (int i = 0; i < 2000; ++i) {
    const WireDecision d = state.next();
    ASSERT_FALSE(d.lost);
    ASSERT_GE(d.extra_delay, sim::Time::zero());
    ASSERT_LE(d.extra_delay, model.reorder_max);
    if (d.extra_delay > sim::Time::zero()) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

// ------------------------------------------------------------- wire hooks

// End to end through a port: with reordering attached, every delivery
// arrives within [propagation, propagation + bound] of its serialization
// end, and nothing is lost.
TEST_F(FaultPortTest, ReorderBoundHoldsOnTheWire) {
  Impairment model;
  model.reorder = 0.5;
  model.reorder_max = sim::Time::milliseconds(40);
  port.attach_impairment(model, 3);
  const int kPackets = 200;
  int offered = 0;
  // Feed one packet per serialization slot so the queue never overflows.
  for (int i = 0; i < kPackets; ++i) {
    sim.schedule_at(sim::Time::milliseconds(80) * i, [this, i, &offered] {
      port.enqueue(data_pkt(static_cast<std::uint32_t>(i)));
      ++offered;
    });
  }
  sim.run_until(sim::Time::seconds(60.0));
  ASSERT_EQ(offered, kPackets);
  ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(kPackets));
  // Arrivals may be out of seq order; packet `seq` finishes serializing at
  // exactly (seq + 1) * 80 ms, so its delivery window is fully determined.
  for (const auto& [at, pkt] : sink.arrivals) {
    const sim::Time done = sim::Time::milliseconds(80) * (pkt.seq + 1);
    EXPECT_GE(at, done + sim::Time::milliseconds(10));
    EXPECT_LE(at, done + sim::Time::milliseconds(10) +
                      sim::Time::milliseconds(40));
  }
}

TEST_F(FaultPortTest, WireLossCountsAsFaultNotQueueDrop) {
  Impairment model;
  model.loss = 1.0;  // lose everything on the wire
  port.attach_impairment(model, 5);
  std::vector<DropCause> causes;
  struct Obs : PacketObserver {
    std::vector<DropCause>* causes;
    void on_create(sim::Time, const Packet&) override {}
    void on_enqueue(sim::Time, const OutputPort&, const Packet&) override {}
    void on_drop(sim::Time, const OutputPort&, const Packet&,
                 DropCause c) override {
      causes->push_back(c);
    }
    void on_dequeue(sim::Time, const OutputPort&, const Packet&) override {}
    void on_deliver(sim::Time, const Packet&) override {}
  } obs;
  obs.causes = &causes;
  port.set_observer(&obs);
  for (std::uint32_t i = 0; i < 5; ++i) port.enqueue(data_pkt(i));
  sim.run_until(sim::Time::seconds(2.0));
  EXPECT_TRUE(sink.arrivals.empty());
  ASSERT_EQ(causes.size(), 5u);
  for (DropCause c : causes) EXPECT_EQ(c, DropCause::kWireLoss);
  // The queue saw clean departures; the loss lives in the fault counters.
  EXPECT_EQ(port.counters().drops, 0u);
  EXPECT_EQ(port.counters().departures, 5u);
  EXPECT_EQ(port.fault_counters().drops_wire, 5u);
  EXPECT_EQ(port.fault_counters().bytes_drops_wire, 5u * 500u);
}

// ------------------------------------------------------------ link up/down

TEST_F(FaultPortTest, DrainPolicyHoldsPacketsThroughOutage) {
  for (std::uint32_t i = 0; i < 4; ++i) port.enqueue(data_pkt(i));
  sim.schedule_at(sim::Time::milliseconds(100),
                  [this] { port.set_link_up(false); });
  sim.schedule_at(sim::Time::milliseconds(500),
                  [this] { port.set_link_up(true); });
  sim.run_until(sim::Time::seconds(2.0));
  // Nothing dropped: the buffer drains after link-up.
  EXPECT_EQ(port.counters().drops, 0u);
  EXPECT_EQ(port.fault_counters().drops_down, 0u);
  ASSERT_EQ(sink.arrivals.size(), 4u);
  // Packet 0 delivered before the outage (80+10 ms); packet 1 was 20 ms
  // into its serialization at cut time and restarts from scratch at 500 ms:
  // 580 ms + 10 ms propagation.
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(90));
  EXPECT_EQ(sink.arrivals[1].first, sim::Time::milliseconds(590));
  EXPECT_EQ(sink.arrivals[2].first, sim::Time::milliseconds(670));
  EXPECT_EQ(sink.arrivals[3].first, sim::Time::milliseconds(750));
  // The busy record matches the exact serialization ledger (2 x 80 ms done
  // before finalization plus the aborted 20 ms and the rest).
  EXPECT_EQ(port.busy_in(sim::Time::zero(), sim.now()).ns(),
            port.busy_accounted_ns());
  EXPECT_TRUE(port.dynamics_applied());
}

TEST_F(FaultPortTest, DiscardPolicyFlushesAndRejects) {
  port.set_down_policy(DownPolicy::kDiscard);
  for (std::uint32_t i = 0; i < 4; ++i) port.enqueue(data_pkt(i));
  sim.schedule_at(sim::Time::milliseconds(100), [this] {
    port.set_link_up(false);
    // Arrivals while down are rejected outright.
    port.enqueue(data_pkt(100));
    port.enqueue(data_pkt(101));
  });
  sim.schedule_at(sim::Time::milliseconds(500),
                  [this] { port.set_link_up(true); });
  sim.run_until(sim::Time::seconds(2.0));
  // Packet 0 delivered; packets 1-3 flushed at cut time; 100/101 rejected.
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(90));
  EXPECT_EQ(port.fault_counters().drops_down, 5u);
  EXPECT_EQ(port.counters().drops, 5u);  // down drops stay in the queue law
  EXPECT_EQ(port.counters().arrivals,
            port.counters().departures + port.counters().drops +
                port.queue_length());
  // Link back up with an empty queue: new traffic flows again.
  port.enqueue(data_pkt(7));
  sim.run_until(sim::Time::seconds(4.0));
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST_F(FaultPortTest, RateChangeReArmsMidSerialization) {
  port.enqueue(data_pkt());
  // At 40 ms the 500 B packet is half sent at 50 kbps. Doubling the rate
  // halves the remaining time: 40 ms remaining -> 20 ms, so serialization
  // completes at 60 ms and delivery at 70 ms.
  sim.schedule_at(sim::Time::milliseconds(40),
                  [this] { port.set_rate(100'000); });
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(70));
  EXPECT_EQ(port.bits_per_second(), 100'000);
  EXPECT_EQ(port.busy_in(sim::Time::zero(), sim.now()).ns(),
            port.busy_accounted_ns());
}

TEST_F(FaultPortTest, DelayChangeAppliesAtWireEntry) {
  port.enqueue(data_pkt(0));
  port.enqueue(data_pkt(1));
  // The propagation delay is sampled when a packet finishes serializing and
  // enters the wire. The change at 40 ms lands mid-first-serialization, so
  // both packets (wire entry at 80 ms and 160 ms) take the new 50 ms.
  sim.schedule_at(sim::Time::milliseconds(40), [this] {
    port.set_propagation_delay(sim::Time::milliseconds(50));
  });
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(130));
  EXPECT_EQ(sink.arrivals[1].first, sim::Time::milliseconds(210));
}

// ------------------------------------------------------------ determinism

// Runs one port + model combination and returns a full event transcript.
std::string run_transcript(const Impairment& model, std::uint64_t seed,
                           bool flap) {
  sim::Simulator sim;
  RecordingSink sink(sim);
  OutputPort port(sim, "p", 50'000, sim::Time::seconds(0.01),
                  QdiscConfig::drop_tail(QueueLimit::of(8)));
  port.set_peer(&sink);
  port.enable_busy_record();
  if (model.any()) port.attach_impairment(model, seed);
  if (flap) {
    for (int k = 0; k < 3; ++k) {
      sim.schedule_at(sim::Time::seconds(1.0 + 2.0 * k), [&port] {
        port.set_down_policy(DownPolicy::kDiscard);
        port.set_link_up(false);
      });
      sim.schedule_at(sim::Time::seconds(1.5 + 2.0 * k),
                      [&port] { port.set_link_up(true); });
    }
  }
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(sim::Time::milliseconds(60) * i, [&port, i] {
      port.enqueue(data_pkt(static_cast<std::uint32_t>(i)));
    });
  }
  sim.run_until(sim::Time::seconds(30.0));
  std::ostringstream os;
  for (const auto& [at, pkt] : sink.arrivals) {
    os << at.ns() << ':' << pkt.seq << '\n';
  }
  const QueueCounters& c = port.counters();
  const FaultCounters& f = port.fault_counters();
  os << c.arrivals << ' ' << c.departures << ' ' << c.drops << ' '
     << f.drops_down << ' ' << f.drops_wire << ' '
     << port.busy_accounted_ns();
  return os.str();
}

// Same seed + same model -> byte-identical transcript, for every model.
// Fault-file times become sim::Time through the one checked conversion,
// so NaN, +-inf and |s| >= 9.2e9 fail with the directive's line number
// instead of overflowing the nanosecond count.
TEST(FaultFile, TimesMustBeRepresentable) {
  const auto error_of = [](const std::string& directive) {
    std::istringstream words(directive);
    std::vector<std::string> args;
    for (std::string w; words >> w;) args.push_back(w);
    core::FaultPlan plan;
    try {
      core::parse_fault_directive(plan, args, 7);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string tail = " must be finite seconds with 0 <= s < 9.2e9, got '";
  EXPECT_EQ(error_of("down S1 S2 nan 1"),
            "fault directive, line 7: outage time" + tail + "nan'");
  EXPECT_EQ(error_of("down S1 S2 1 inf"),
            "fault directive, line 7: outage duration" + tail + "inf'");
  EXPECT_EQ(error_of("rate S1 S2 1e10 50000"),
            "fault directive, line 7: change time" + tail + "1e10'");
  EXPECT_EQ(error_of("delay S1 S2 -inf 0.1"),
            "fault directive, line 7: change time" + tail + "-inf'");
  EXPECT_EQ(error_of("delay S1 S2 5 nan"),
            "fault directive, line 7: delay" + tail + "nan'");
  EXPECT_EQ(error_of("reorder S1 S2 0.1 inf"),
            "fault directive, line 7: reorder bound" + tail + "inf'");
  EXPECT_EQ(error_of("reorder S1 S2 0.1 -0.5"),
            "fault directive, line 7: reorder bound" + tail + "-0.5'");
  EXPECT_EQ(error_of("down S1 S2 9.1e9 1 discard"), "no error");
}

// A fault file adds to a plan that already holds entries: each entry goes
// after the plan's own, in file order, and only a `seed` line changes the
// plan's seed. A malformed directive names its line.
TEST(FaultFile, LoadAppendsToThePlan) {
  const auto file = [](const std::string& name, const std::string& text) {
    const std::string path = testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
  };
  core::FaultPlan plan;
  plan.set_seed(42);
  core::parse_fault_directive(plan, {"down", "S1", "S2", "10", "1"}, 1);
  core::parse_fault_directive(plan, {"loss", "S1", "S2", "0.1"}, 2);

  core::load_fault_file(file("fault_append.txt",
                             "# no seed line\n"
                             "fault down S2 S3 20 2 discard\n"
                             "\n"
                             "down S1 S2 30 1 dir=ab\n"
                             "gilbert S1 S2 0.02 0.3 0 0.5 dir=ba\n"),
                        plan);
  EXPECT_EQ(plan.seed(), 42u);
  ASSERT_EQ(plan.outages().size(), 3u);
  EXPECT_EQ(plan.outages()[0].at, sim::Time::seconds(10.0));
  EXPECT_EQ(plan.outages()[1].link.b, "S3");
  EXPECT_EQ(plan.outages()[1].policy, DownPolicy::kDiscard);
  EXPECT_EQ(plan.outages()[2].at, sim::Time::seconds(30.0));
  EXPECT_EQ(plan.outages()[2].link.dir, core::FaultDir::kAB);
  ASSERT_EQ(plan.impairments().size(), 2u);
  EXPECT_DOUBLE_EQ(plan.impairments()[0].model.loss, 0.1);
  EXPECT_TRUE(plan.impairments()[1].model.gilbert.has_value());

  core::load_fault_file(file("fault_seed.txt", "rate S1 S2 40 25000\nseed 7\n"),
                        plan);
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_EQ(plan.rate_changes().size(), 1u);
  EXPECT_EQ(plan.outages().size(), 3u);

  try {
    core::load_fault_file(
        file("fault_bad.txt", "down S1 S2 1 1\n# fine\ndelay S1 S2 x 0.1\n"),
        plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fault directive, line 3: change time must be finite "
                 "seconds with 0 <= s < 9.2e9, got 'x'");
  }
  EXPECT_THROW(core::load_fault_file(
                   testing::TempDir() + "no-such-dir/faults.txt", plan),
               std::runtime_error);
}

TEST(FaultDeterminism, DoubleRunByteIdenticalPerModel) {
  std::vector<Impairment> models(4);
  models[0].loss = 0.2;
  GilbertElliott ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.4;
  ge.loss_bad = 0.7;
  models[1].gilbert = ge;
  models[2].corrupt = 0.1;
  models[3].reorder = 0.5;
  models[3].reorder_max = sim::Time::milliseconds(30);
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (bool flap : {false, true}) {
      const std::string a = run_transcript(models[m], 11 + m, flap);
      const std::string b = run_transcript(models[m], 11 + m, flap);
      EXPECT_EQ(a, b) << "model " << m << " flap " << flap;
      EXPECT_FALSE(a.empty());
    }
  }
  // Different seeds produce different transcripts (the stream matters).
  EXPECT_NE(run_transcript(models[0], 11, false),
            run_transcript(models[0], 12, false));
}

}  // namespace
}  // namespace tcpdyn::net
