#include "sim/simulator.h"

#include <cassert>

namespace tcpdyn::sim {

EventHandle Simulator::schedule(Time delay, Scheduler::Action action) {
  if (delay < Time::zero()) delay = Time::zero();
  return insert(now_ + delay, ctx_, std::move(action));
}

EventHandle Simulator::schedule_at(Time at, Scheduler::Action action) {
  assert(at >= now_);
  return insert(at, ctx_, std::move(action));
}

EventHandle Simulator::schedule_handoff(Time delay, DetContext* dispatch,
                                        Scheduler::Action action) {
  if (delay < Time::zero()) delay = Time::zero();
  return insert(now_ + delay, dispatch, std::move(action));
}

EventHandle Simulator::schedule_at_keyed(Time at, std::uint64_t seq,
                                         std::uint64_t det_tie,
                                         DetContext* dispatch,
                                         Scheduler::Action action) {
  assert(at >= now_);
  return scheduler_.schedule_at(at, seq, det_tie, dispatch,
                                std::move(action));
}

EventHandle Simulator::insert(Time at, DetContext* dispatch,
                              Scheduler::Action&& action) {
  return scheduler_.schedule_at(at, static_cast<std::uint64_t>(now_.ns()),
                                det_tie_next(*ctx_), dispatch,
                                std::move(action));
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    const Time next = scheduler_.next_time();
    if (next > until) break;
    // Advance the clock before dispatching: the action must observe now()
    // equal to its own firing time (it schedules follow-up events off it).
    now_ = next;
    scheduler_.run_next();
    ++events_executed_;
  }
  if (!stopped_ && now_ < until) now_ = until;
}

void Simulator::run_before(Time horizon) {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    const Time next = scheduler_.next_time();
    if (next >= horizon) break;
    now_ = next;
    scheduler_.run_next();
    ++events_executed_;
  }
}

void Simulator::advance_clock_to(Time t) {
  assert(t >= now_);
  now_ = t;
}

void Simulator::run_all() {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    now_ = scheduler_.next_time();
    scheduler_.run_next();
    ++events_executed_;
  }
}

}  // namespace tcpdyn::sim
