#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/table.h"

namespace tcpdyn::core {

using util::fmt;
using util::fmt_pct;

double max_ack_compression(const ScenarioSummary& s) {
  double m = 0.0;
  for (const auto& [conn, a] : s.ack) m = std::max(m, a.compressed_fraction);
  return m;
}

void print_summary(std::ostream& os, const std::string& name,
                   const ScenarioSummary& s) {
  os << "== " << name << " ==\n";
  util::Table t({"metric", "value"});
  t.add_row({"measurement window",
             fmt(s.result.t_start, 0) + "s .. " + fmt(s.result.t_end, 0) + "s"});
  t.add_row({"utilization fwd", fmt_pct(s.util_fwd)});
  if (s.result.ports.size() > 1) {
    t.add_row({"utilization rev", fmt_pct(s.util_rev)});
    t.add_row({"queue sync",
               std::string(to_string(s.queue_sync.mode)) +
                   " (rho=" + fmt(s.queue_sync.correlation) + ")" +
                   (s.queue_sync.degenerate ? " [degenerate]" : "")});
  }
  if (s.cwnd_sync.mode != SyncMode::kUnclassified ||
      s.result.cwnd.size() >= 2) {
    t.add_row({"cwnd sync",
               std::string(to_string(s.cwnd_sync.mode)) +
                   " (rho=" + fmt(s.cwnd_sync.correlation) + ")" +
                   (s.cwnd_sync.degenerate ? " [degenerate]" : "")});
  }
  t.add_row({"congestion epochs", std::to_string(s.epochs.epochs.size())});
  if (!s.epochs.epochs.empty()) {
    t.add_row({"drops/epoch (mean)", fmt(s.epochs.mean_drops_per_epoch)});
    t.add_row({"epoch interval (mean)", fmt(s.epochs.mean_interval, 1) + "s"});
    t.add_row({"data-drop fraction", fmt_pct(s.epochs.data_drop_fraction)});
    t.add_row({"single-loser epochs", fmt_pct(s.epochs.single_loser_fraction)});
    t.add_row(
        {"loser alternation", fmt_pct(s.epochs.loser_alternation_fraction)});
  }
  t.add_row({"clustering fwd (mean run)", fmt(s.clustering_fwd.mean_run_length)});
  if (s.result.ports.size() > 1) {
    t.add_row(
        {"clustering rev (mean run)", fmt(s.clustering_rev.mean_run_length)});
  }
  t.add_row({"queue fluct fwd (mean range/tx)", fmt(s.fluct_fwd.mean_range)});
  t.add_row({"queue fluct fwd (max burst rise)", fmt(s.fluct_fwd.max_burst_rise)});
  if (!s.ack.empty()) {
    t.add_row({"ACK-compressed gap fraction (max over conns)",
               fmt_pct(max_ack_compression(s))});
  }
  if (s.period_fwd) {
    t.add_row({"fwd queue oscillation period", fmt(*s.period_fwd, 1) + "s"});
  }
  if (s.flows.flows > 2) {
    t.add_row({"flows", std::to_string(s.flows.flows)});
    t.add_row({"flow goodput min/mean/max (pkt/s)",
               fmt(s.flows.goodput_min) + " / " + fmt(s.flows.goodput_mean) +
                   " / " + fmt(s.flows.goodput_max)});
    t.add_row({"Jain fairness", fmt(s.flows.jain)});
  }
  if (s.result.audit.created > 0) {
    const AuditTotals& a = s.result.audit;
    t.add_row({"conservation",
               std::to_string(a.created) + " sent = " +
                   std::to_string(a.delivered) + " delivered + " +
                   std::to_string(a.dropped) + " dropped + " +
                   std::to_string(a.in_queue) + " queued + " +
                   std::to_string(a.in_flight) + " in flight"});
    if (a.drops_down > 0 || a.drops_fault > 0) {
      t.add_row({"drop causes",
                 std::to_string(a.drops_queue) + " queue + " +
                     std::to_string(a.drops_down) + " link-down + " +
                     std::to_string(a.drops_fault) + " wire-fault = " +
                     std::to_string(a.dropped)});
    }
  }
  t.print(os);
}

int print_claims(std::ostream& os, const std::string& name,
                 const std::vector<Claim>& claims) {
  util::Table t({"claim", "paper", "measured", "holds"});
  int failed = 0;
  for (const Claim& c : claims) {
    t.add_row({c.what, c.paper, c.measured, c.holds ? "yes" : "NO"});
    if (!c.holds) ++failed;
  }
  os << "-- paper vs measured: " << name << " --\n";
  t.print(os);
  os << (failed == 0 ? "all claims hold" : std::to_string(failed) +
                                               " claim(s) FAILED")
     << "\n\n";
  return failed;
}

void print_queue_chart(std::ostream& os, const util::TimeSeries& queue,
                       double from, double to, int width, int height,
                       const std::string& title) {
  if (width <= 0 || height <= 0 || to <= from) return;
  const double slice = (to - from) / width;
  std::vector<double> column_max(static_cast<std::size_t>(width), 0.0);
  for (int i = 0; i < width; ++i) {
    const double a = from + i * slice;
    column_max[static_cast<std::size_t>(i)] = queue.max_in(a, a + slice);
  }
  const double peak =
      std::max(1.0, *std::max_element(column_max.begin(), column_max.end()));
  if (!title.empty()) os << title << "  (peak " << fmt(peak, 0) << " pkts)\n";
  for (int row = height; row >= 1; --row) {
    const double level = peak * row / height;
    os << '|';
    for (int i = 0; i < width; ++i) {
      os << (column_max[static_cast<std::size_t>(i)] >= level - 1e-9 ? '#'
                                                                     : ' ');
    }
    os << '\n';
  }
  os << '+' << std::string(static_cast<std::size_t>(width), '-') << "  "
     << fmt(from, 0) << "s.." << fmt(to, 0) << "s\n";
}

}  // namespace tcpdyn::core
