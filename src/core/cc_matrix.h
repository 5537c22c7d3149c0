// Congestion-control head-to-head matrix: for every ordered pair of
// algorithms (A, B), run a dumbbell in which flows of A and flows of B share
// the forward bottleneck, and report per-algorithm goodput, the row
// algorithm's bandwidth share, and Jain's fairness over all flows in the
// cell. The diagonal measures intra-algorithm fairness; off-diagonal cells
// measure how an algorithm fares against a different controller (the
// CUBIC-vs-Vegas style of question the zoo exists to answer).
//
// Every cell is an independent Experiment with deterministic staggered
// starts, so the whole matrix is a pure function of its parameters — CI
// runs it twice per algorithm set and byte-compares the printed output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/audit.h"
#include "core/scenarios.h"
#include "tcp/congestion_control.h"

namespace tcpdyn::core {

struct CcMatrixParams {
  // Algorithms forming the matrix rows/columns, in order.
  std::vector<tcp::CcAlgorithm> algos = {
      tcp::CcAlgorithm::kTahoe,  tcp::CcAlgorithm::kReno,
      tcp::CcAlgorithm::kNewReno, tcp::CcAlgorithm::kCubic,
      tcp::CcAlgorithm::kVegas,  tcp::CcAlgorithm::kBbr,
      tcp::CcAlgorithm::kFixedWindow};
  double tau_sec = 0.01;
  std::size_t buffer = 20;
  std::size_t flows_per_algo = 1;   // flows of each algorithm per cell
  std::uint32_t fixed_window = 10;  // window for kFixedWindow entrants
  std::uint32_t maxwnd = 1000;
  double warmup_sec = 20.0;
  double duration_sec = 80.0;
  AuditMode audit = AuditMode::kFull;
};

struct CcMatrixCell {
  tcp::CcAlgorithm row = tcp::CcAlgorithm::kTahoe;
  tcp::CcAlgorithm col = tcp::CcAlgorithm::kTahoe;
  double goodput_row = 0.0;  // summed goodput of the row flows (packets/sec)
  double goodput_col = 0.0;
  double share_row = 0.0;    // goodput_row / (goodput_row + goodput_col)
  double jain = 0.0;         // Jain's index over every flow in the cell
  double util_fwd = 0.0;     // forward-bottleneck utilization
};

struct CcMatrixResult {
  std::vector<tcp::CcAlgorithm> algos;
  std::vector<CcMatrixCell> cells;  // row-major, algos.size()^2 entries
  std::uint64_t events = 0;         // scheduler events across all cells
  AuditTotals audit;                // ledger totals summed over cells

  const CcMatrixCell& at(std::size_t row, std::size_t col) const {
    return cells.at(row * algos.size() + col);
  }
};

// Runs all |algos|^2 cells. Each cell's Experiment runs under
// `params.audit`; a conservation violation throws std::logic_error out of
// this call (run() itself is the assertion).
CcMatrixResult run_cc_matrix(const CcMatrixParams& params);

// Two tables — the row algorithm's bandwidth share per cell, and Jain's
// fairness per cell — in a fixed text format suitable for byte-comparison.
void print_cc_matrix(std::ostream& os, const CcMatrixResult& m);

// Mixed-algorithm two-way dumbbell: `conns` flows (half forward, half
// reverse) whose controllers cycle through `algos`. The sweep tool exposes
// it as scenario `ccmix`, so the determinism gate can diff a grid in which
// different controllers share one bottleneck.
TopoSpec ccmix_twoway(const std::vector<tcp::CcAlgorithm>& algos,
                      std::size_t conns = 6, double tau_sec = 0.01,
                      std::size_t buffer = 20);

}  // namespace tcpdyn::core
