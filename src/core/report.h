// Console reporting for bench harnesses: renders a ScenarioSummary as the
// rows the paper reports (utilization, sync modes, drops per epoch,
// clustering, ACK-compression) plus an optional paper-vs-measured table and
// coarse ASCII strip charts of the queue traces (the figures themselves).
#pragma once

#include <iosfwd>
#include <string>

#include "core/scenarios.h"

namespace tcpdyn::core {

// One paper-vs-measured comparison row.
struct Claim {
  std::string what;      // e.g. "utilization (fwd)"
  std::string paper;     // e.g. "~90%"
  std::string measured;  // e.g. "89.6%"
  bool holds = false;    // does the measured value match the paper's shape?
};

// The largest ACK-compressed gap fraction over the summary's connections;
// 0 when it has none.
double max_ack_compression(const ScenarioSummary& summary);

// Prints the standard summary block for a scenario.
void print_summary(std::ostream& os, const std::string& name,
                   const ScenarioSummary& summary);

// Prints a paper-vs-measured table and returns the number of failed claims.
int print_claims(std::ostream& os, const std::string& name,
                 const std::vector<Claim>& claims);

// Renders a queue-length trace as an ASCII strip chart: `width` columns over
// [from, to], each column the max queue length in its time slice, scaled to
// `height` rows.
void print_queue_chart(std::ostream& os, const util::TimeSeries& queue,
                       double from, double to, int width = 100,
                       int height = 12, const std::string& title = "");

}  // namespace tcpdyn::core
