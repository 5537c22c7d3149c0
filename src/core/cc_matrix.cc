#include "core/cc_matrix.h"

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/dumbbell.h"
#include "util/rng.h"

namespace tcpdyn::core {

namespace {

// Head-to-head: every flow runs H1 -> H2, contending for the same port.
ConnSpec entrant(tcp::CcAlgorithm algo, const CcMatrixParams& params,
                 std::size_t slot) {
  ConnSpec c = dumbbell_flow(true);
  c.kind = algo;
  c.fixed_window = params.fixed_window;
  c.maxwnd = params.maxwnd;
  c.start_time = sim::Time::seconds(0.37 * static_cast<double>(slot));
  return c;
}

CcMatrixCell run_cell(tcp::CcAlgorithm row, tcp::CcAlgorithm col,
                      const CcMatrixParams& params, std::uint64_t* events,
                      AuditTotals* totals) {
  TopoSpec spec;
  spec.topo = dumbbell_topology(
      dumbbell_params(params.tau_sec, net::QueueLimit::of(params.buffer)));
  // Row flows take even slots, column flows odd slots, so neither algorithm
  // gets a systematic head start as flows_per_algo grows.
  for (std::size_t i = 0; i < params.flows_per_algo; ++i) {
    spec.traffic.add(entrant(row, params, 2 * i));
    spec.traffic.add(entrant(col, params, 2 * i + 1));
  }
  Scenario sc(spec);
  Experiment& exp = *sc.exp;
  exp.set_audit_mode(params.audit);

  const ExperimentResult r = exp.run(sim::Time::seconds(params.warmup_sec),
                                     sim::Time::seconds(params.duration_sec));
  *events += exp.sim().events_executed();
  totals->created += r.audit.created;
  totals->delivered += r.audit.delivered;
  totals->dropped += r.audit.dropped;
  totals->in_queue += r.audit.in_queue;
  totals->in_flight += r.audit.in_flight;
  totals->drops_queue += r.audit.drops_queue;
  totals->drops_down += r.audit.drops_down;
  totals->drops_fault += r.audit.drops_fault;

  CcMatrixCell cell;
  cell.row = row;
  cell.col = col;
  const double window = r.t_end - r.t_start;
  std::vector<double> goodputs;
  for (const auto& [id, delivered] : r.delivered) {
    const double g =
        window > 0.0 ? static_cast<double>(delivered) / window : 0.0;
    goodputs.push_back(g);
    // Even connection ids are row flows (matching the slot order above).
    (id % 2 == 0 ? cell.goodput_row : cell.goodput_col) += g;
  }
  cell.jain = jain_fairness(goodputs);
  const double total = cell.goodput_row + cell.goodput_col;
  cell.share_row = total > 0.0 ? cell.goodput_row / total : 0.0;
  if (!r.ports.empty()) cell.util_fwd = r.ports[0].utilization;
  return cell;
}

}  // namespace

CcMatrixResult run_cc_matrix(const CcMatrixParams& params) {
  CcMatrixResult m;
  m.algos = params.algos;
  const std::size_t n = params.algos.size();
  m.cells.reserve(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.cells.push_back(run_cell(params.algos[i], params.algos[j], params,
                                 &m.events, &m.audit));
    }
  }
  return m;
}

void print_cc_matrix(std::ostream& os, const CcMatrixResult& m) {
  const std::size_t n = m.algos.size();
  char buf[128];
  const auto table = [&](const char* title, double CcMatrixCell::*field) {
    os << title << '\n';
    os << "         ";
    for (std::size_t j = 0; j < n; ++j) {
      std::snprintf(buf, sizeof(buf), " %8s", tcp::to_string(m.algos[j]));
      os << buf;
    }
    os << '\n';
    for (std::size_t i = 0; i < n; ++i) {
      std::snprintf(buf, sizeof(buf), "%9s", tcp::to_string(m.algos[i]));
      os << buf;
      for (std::size_t j = 0; j < n; ++j) {
        std::snprintf(buf, sizeof(buf), " %8.3f", m.at(i, j).*field);
        os << buf;
      }
      os << '\n';
    }
  };
  std::snprintf(buf, sizeof(buf), "cc-matrix %zux%zu\n", n, n);
  os << buf;
  table("row share of forward bottleneck vs column:",
        &CcMatrixCell::share_row);
  table("jain fairness per cell:", &CcMatrixCell::jain);
  table("forward utilization per cell:", &CcMatrixCell::util_fwd);
  std::snprintf(buf, sizeof(buf),
                "ledger: created=%llu delivered=%llu dropped=%llu\n",
                static_cast<unsigned long long>(m.audit.created),
                static_cast<unsigned long long>(m.audit.delivered),
                static_cast<unsigned long long>(m.audit.dropped));
  os << buf;
}

TopoSpec ccmix_twoway(const std::vector<tcp::CcAlgorithm>& algos,
                      std::size_t conns, double tau_sec, std::size_t buffer) {
  TopoSpec spec;
  spec.name = "ccmix-twoway";
  spec.topo =
      dumbbell_topology(dumbbell_params(tau_sec, net::QueueLimit::of(buffer)));
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(400.0);
  spec.epoch_gap_sec = tau_sec >= 0.5 ? 8.0 : 2.0;
  // Same staggered-start discipline as the paper scenarios (seeded draw so
  // the grid point is a pure function of its parameters).
  util::Rng rng(42);
  for (std::size_t i = 0; i < conns; ++i) {
    ConnSpec c = dumbbell_flow(i < (conns + 1) / 2);
    c.kind = algos.empty() ? tcp::CcAlgorithm::kTahoe : algos[i % algos.size()];
    c.start_time = sim::Time::seconds(rng.uniform(0.0, 5.0));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

}  // namespace tcpdyn::core
