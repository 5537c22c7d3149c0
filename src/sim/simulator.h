// Simulator: the simulation clock plus the scheduler façade every model
// component uses. Single-threaded; all model state is driven from run().
// Every event is keyed deterministically (sim/det_context.h): one event
// order, whether the run is serial or one shard of a ShardedEngine.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/det_context.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace tcpdyn::sim {

class Simulator {
 public:
  Simulator() { scheduler_.bind_active_context(&ctx_); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `action` to run `delay` after now. Negative delays are clamped
  // to zero (runs at now(), after the same-time events already queued from
  // an earlier birth time).
  EventHandle schedule(Time delay, Scheduler::Action action);

  // Schedules at an absolute time (must be >= now()).
  EventHandle schedule_at(Time at, Scheduler::Action action);

  // Runs events until the queue drains or the clock would pass `until`.
  // The clock is left at min(until, time of last event). Events exactly at
  // `until` are executed.
  void run_until(Time until);

  // Runs until the event queue is empty (use with care: greedy TCP sources
  // never drain the queue).
  void run_all();

  // Makes run_until/run_all return after the current event completes.
  void stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }

  // --- deterministic event keys -----------------------------------------
  // Every schedule call is keyed by (firing time, birth time = now(), det
  // tie drawn from the active context), and the context is re-published at
  // each dispatch so scheduled children inherit the dispatching entity's
  // identity. The simulator's own engine context is active from
  // construction; setup code activates a node's context while it schedules
  // on that node's behalf.
  void set_det_context(DetContext* ctx) { ctx_ = ctx; }
  DetContext* det_context() const { return ctx_; }
  void activate_engine_context() { ctx_ = &engine_ctx_; }

  // Port handoff: keyed from the *active* (transmitting-side) context but
  // dispatched under `dispatch` (the receiving node's context), so events
  // the receiver schedules inherit its identity.
  EventHandle schedule_handoff(Time delay, DetContext* dispatch,
                               Scheduler::Action action);

  // Externally keyed insert (cross-shard mailbox drain): the caller supplies
  // the key computed on the transmitting shard.
  EventHandle schedule_at_keyed(Time at, std::uint64_t seq,
                                std::uint64_t det_tie, DetContext* dispatch,
                                Scheduler::Action action);

  // Windowed run for conservative barrier rounds: executes events strictly
  // before `horizon` and leaves the clock at the last event executed (only
  // advance_clock_to moves an idle clock forward).
  void run_before(Time horizon);

  // Earliest pending event time; Time::max() when the queue is empty.
  Time next_event_time() { return scheduler_.next_time(); }

  // Barrier-round bookkeeping: jumps the idle clock forward (t >= now()).
  void advance_clock_to(Time t);

 private:
  // The one keyed insert behind every schedule call. Takes the action by
  // rvalue reference: each by-value hop would relocate it once more.
  EventHandle insert(Time at, DetContext* dispatch,
                     Scheduler::Action&& action);

  Scheduler scheduler_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  DetContext engine_ctx_{kDetCtxMaxId};
  DetContext* ctx_ = &engine_ctx_;
};

}  // namespace tcpdyn::sim
