// Single-layer micro-benchmarks for the traced run. Each reports nanoseconds
// per operation, keyed by its per-layer metric name.
#pragma once

#include <map>
#include <string>

namespace tcpdyn::bench {

// `mesh_topo` is the mesh workload's generated .topo text; its compiled
// network is the large-route-table case of the switch micro. `quick`
// shortens every loop for the smoke test.
std::map<std::string, double> run_micros(const std::string& mesh_topo,
                                         bool quick);

}  // namespace tcpdyn::bench
