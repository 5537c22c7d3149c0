// A bare sim::Scheduler keyed the way a Simulator keys one context's
// events: birth time `birth`, ties in insertion order, so simultaneous
// events of equal birth fire FIFO. Lets scheduler tests drive the heap
// directly without a Simulator's clock.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/scheduler.h"

namespace tcpdyn::sim {

class FifoScheduler : public Scheduler {
 public:
  EventHandle schedule_at(Time at, Action action, Time birth = Time::zero()) {
    return Scheduler::schedule_at(at, static_cast<std::uint64_t>(birth.ns()),
                                  next_tie_++, nullptr, std::move(action));
  }

 private:
  std::uint64_t next_tie_ = 0;
};

}  // namespace tcpdyn::sim
