// §4.3.3's thought experiment, made executable. The paper derives the two
// synchronization modes from the fixed-window data:
//
//   "Consider Figure 8; in each epoch queue 1 reaches a maximum of 55 while
//    queue 2 reaches a maximum of 23. If one were to fix the buffer size to
//    be 55 and then suddenly increase the window sizes of both connections
//    by one, connection 1 would suffer two losses while connection 2 would
//    not suffer any losses. [...] In contrast, the queues in Figure 9 both
//    reach the same maximal height of 23. If one were to fix the buffer
//    sizes to be 23 and then suddenly increase both window sizes by one,
//    both queues would overflow and thus both connections would experience
//    a single packet loss."
//
// We run exactly that: fixed-window connections are ramped gently (one
// packet of window per step, mimicking how the adaptive system arrives at
// this state without startup bursts) to 30/25 on finite buffers sized to
// the measured Fig. 8 / Fig. 9 maxima, then both windows are bumped by one
// at a known instant and the drops of the following cycle are counted.
//
// The two regimes are independent simulations, so they run as a two-point
// core::SweepRunner grid (one per worker thread); the point function here is
// custom — not a Scenario — which is exactly what the generic SweepFn hook
// is for.
#include <iostream>

#include "core/dumbbell.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace tcpdyn;

namespace {

struct BumpOutcome {
  int losses_conn0 = 0;  // connection 1's data drops in the cycle after the bump
  int losses_conn1 = 0;
  int ack_drops = 0;
  int drops_before_bump = 0;  // ramp must be loss-free for a clean experiment
};

constexpr double kBumpTime = 70.0;

// Two fixed-window connections over the dumbbell `p`: window w1 forward from
// t = 0, window w2 reverse from t = 1.7 s.
core::Scenario fixed_pair(const core::DumbbellParams& p, std::uint32_t w1,
                          std::uint32_t w2) {
  core::TopoSpec spec;
  spec.topo = core::dumbbell_topology(p);
  for (const bool forward : {true, false}) {
    core::ConnSpec c = core::dumbbell_flow(forward);
    c.kind = tcp::CcAlgorithm::kFixedWindow;
    c.fixed_window = forward ? w1 : w2;
    if (!forward) c.start_time = sim::Time::seconds(1.7);
    spec.traffic.add(std::move(c));
  }
  return core::make_topo_scenario(spec);
}

BumpOutcome run_bump(double tau, std::size_t buffer) {
  core::Scenario sc =
      fixed_pair(core::dumbbell_params(tau, net::QueueLimit::of(buffer)), 1, 1);
  core::Experiment& exp = *sc.exp;

  // Ramp: +1 packet of window every 1.5 s until 30/25 (done by t ~ 45 s).
  for (std::uint32_t step = 1; step < 30; ++step) {
    exp.sim().schedule(sim::Time::seconds(3.0 + 1.5 * step),
                       [&exp, step] {
                         auto* c0 = exp.connection(0).fixed();
                         auto* c1 = exp.connection(1).fixed();
                         c0->set_window(std::min(30u, step + 1));
                         c1->set_window(std::min(25u, step + 1));
                       });
  }
  // The bump: both windows +1, simultaneously.
  exp.sim().schedule(sim::Time::seconds(kBumpTime), [&exp] {
    exp.connection(0).fixed()->set_window(31);
    exp.connection(1).fixed()->set_window(26);
  });

  // One full cycle of the fixed-window system after the bump:
  // (W1 + W2) packets x 80 ms + a round of propagation, with headroom.
  const double cycle = 55.0 * 0.08 + 2.0 * tau + 1.0;
  const core::ExperimentResult r = exp.run(
      sim::Time::seconds(0.0), sim::Time::seconds(kBumpTime + cycle + 10.0));

  BumpOutcome out;
  for (const auto& d : r.drops) {
    if (d.time < kBumpTime) {
      ++out.drops_before_bump;
      continue;
    }
    if (d.time > kBumpTime + cycle) continue;
    if (!d.data) {
      ++out.ack_drops;
    } else if (d.conn == 0) {
      ++out.losses_conn0;
    } else {
      ++out.losses_conn1;
    }
  }
  return out;
}

}  // namespace

// Case 2, run as the paper phrases it — a counterfactual on the Fig. 9
// system: with infinite buffers (the Fig. 9 attractor needs the burst start
// that a finite buffer would clip), bump both windows by one and verify
// BOTH queue maxima climb past the old maximum of 23 — i.e. a 23-packet
// buffer would have overflowed at both switches, one loss each.
struct CounterfactualOutcome {
  double q1_before = 0.0, q2_before = 0.0;
  double q1_after = 0.0, q2_after = 0.0;
};

CounterfactualOutcome run_counterfactual() {
  core::Scenario sc = fixed_pair(
      core::dumbbell_params(1.0, net::QueueLimit::infinite()), 30, 25);
  core::Experiment& exp = *sc.exp;
  exp.sim().schedule(sim::Time::seconds(kBumpTime), [&exp] {
    exp.connection(0).fixed()->set_window(31);
    exp.connection(1).fixed()->set_window(26);
  });
  const core::ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(kBumpTime + 40.0));
  CounterfactualOutcome out;
  out.q1_before = r.ports[0].queue.max_in(40.0, kBumpTime);
  out.q2_before = r.ports[1].queue.max_in(40.0, kBumpTime);
  // The overflow the paper predicts happens in the first cycle after the
  // bump (the system then re-settles with the extra packets absorbed).
  out.q1_after = r.ports[0].queue.max_in(kBumpTime, kBumpTime + 10.0);
  out.q2_after = r.ports[1].queue.max_in(kBumpTime, kBumpTime + 10.0);
  return out;
}

int main() {
  int failures = 0;

  // Case 0: Fig. 8 regime (tau = 0.01 s), buffers at the Fig. 8 maxima.
  // Case 1: Fig. 9 regime (tau = 1 s), counterfactual on infinite buffers.
  core::SweepGrid grid({{"case", {0, 1}}});
  core::SweepRunner runner(grid,
                           {.jobs = util::ThreadPool::default_jobs(),
                            .seed = 1,
                            .progress = false});
  const core::SweepTable result =
      runner.run([](const core::SweepPoint& pt) {
        core::SweepRow row;
        if (pt.value("case") == 0) {
          const BumpOutcome o = run_bump(0.01, 55);
          row.add("losses_conn0", static_cast<std::int64_t>(o.losses_conn0));
          row.add("losses_conn1", static_cast<std::int64_t>(o.losses_conn1));
          row.add("ack_drops", static_cast<std::int64_t>(o.ack_drops));
          row.add("drops_before_bump",
                  static_cast<std::int64_t>(o.drops_before_bump));
        } else {
          const CounterfactualOutcome o = run_counterfactual();
          row.add("q1_before", o.q1_before);
          row.add("q2_before", o.q2_before);
          row.add("q1_after", o.q1_after);
          row.add("q2_after", o.q2_after);
        }
        return row;
      });

  BumpOutcome a;
  a.losses_conn0 = static_cast<int>(result.rows()[0].number("losses_conn0"));
  a.losses_conn1 = static_cast<int>(result.rows()[0].number("losses_conn1"));
  a.ack_drops = static_cast<int>(result.rows()[0].number("ack_drops"));
  a.drops_before_bump =
      static_cast<int>(result.rows()[0].number("drops_before_bump"));
  CounterfactualOutcome b;
  b.q1_before = result.rows()[1].number("q1_before");
  b.q2_before = result.rows()[1].number("q2_before");
  b.q1_after = result.rows()[1].number("q1_after");
  b.q2_after = result.rows()[1].number("q2_after");

  util::Table t({"configuration", "observed", "paper prediction"});
  t.add_row({"tau=0.01s, B=55 (Fig. 8 maxima)",
             "conn 1 lost " + std::to_string(a.losses_conn0) + ", conn 2 lost " +
                 std::to_string(a.losses_conn1) + ", " +
                 std::to_string(a.ack_drops) + " ACK drops, " +
                 std::to_string(a.drops_before_bump) + " ramp drops",
             "conn 1 loses 2, conn 2 loses 0"});
  t.add_row({"tau=1s, B=inf (Fig. 9 counterfactual)",
             "maxima " + util::fmt(b.q1_before, 0) + "/" +
                 util::fmt(b.q2_before, 0) + " -> " + util::fmt(b.q1_after, 0) +
                 "/" + util::fmt(b.q2_after, 0),
             "both maxima pass 23: each conn would lose 1 at B=23"});
  std::cout << "§4.3.3 thought experiment: +1 to both fixed windows at "
               "steady state\n";
  t.print(std::cout);

  if (a.drops_before_bump != 0) {
    ++failures;
    std::cout << "CLAIM FAILED: the ramp to steady state must be loss-free\n";
  }
  if (!(a.losses_conn0 == 2 && a.losses_conn1 == 0)) {
    ++failures;
    std::cout << "CLAIM FAILED: Fig.8 regime should give conn 1 exactly two "
                 "losses and conn 2 none\n";
  }
  if (a.ack_drops != 0) {
    ++failures;
    std::cout << "CLAIM FAILED: ACKs are never dropped (§4.2)\n";
  }
  if (!(b.q1_before <= 23.0 && b.q2_before <= 23.0 && b.q1_after > 23.0 &&
        b.q2_after > 23.0)) {
    ++failures;
    std::cout << "CLAIM FAILED: Fig.9 counterfactual — both queue maxima "
                 "must rise past 23 after the bump\n";
  }
  std::cout << "bench_window_bump: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
