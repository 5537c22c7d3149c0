// The claims table: one ClaimSet per EXPERIMENTS.md experiment, its
// sections in the order its output prints them. EXPERIMENTS.md gives each
// set's configuration, its claims and the paper text behind them.
#include "claims.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <ostream>
#include <utility>

#include "core/analysis.h"
#include "core/dumbbell.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "core/topo_scenarios.h"
#include "util/table.h"

namespace tcpdyn::claims {

namespace {

using core::ScenarioSummary;
using core::SyncMode;
using util::fmt;
using util::fmt_pct;

Section block(std::function<void(std::ostream&, const Runs&)> print) {
  return {std::move(print), {}, {}};
}

Section table(std::string title, std::vector<Claim> claims) {
  return {{}, std::move(title), std::move(claims)};
}

// Each run's wave statistics, computed at most once per evaluate() or
// print_set() call: analyze_waves passes over every monitored port's
// series, and red_wave's claims and printed block read the same three runs
// thirteen times. Each call holds a WaveMemo while it runs, and the
// outermost one's end forgets every entry, so a later call on other runs at
// the same address recomputes. Outside any call nothing is kept. The memo
// is thread_local: calls on different threads never share entries.
class WaveMemo {
 public:
  WaveMemo() { ++depth_; }
  ~WaveMemo() {
    if (--depth_ == 0) stats_.clear();
  }
  WaveMemo(const WaveMemo&) = delete;
  WaveMemo& operator=(const WaveMemo&) = delete;

  static core::WaveStats of(const ScenarioSummary& s) {
    const auto compute = [&] {
      return core::analyze_waves(s.result.ports, s.result.t_start,
                                 s.result.t_end);
    };
    if (depth_ == 0) return compute();
    auto it = stats_.find(&s);
    if (it == stats_.end()) it = stats_.emplace(&s, compute()).first;
    return it->second;
  }

 private:
  static thread_local int depth_;
  static thread_local std::map<const ScenarioSummary*, core::WaveStats> stats_;
};

thread_local int WaveMemo::depth_ = 0;
thread_local std::map<const ScenarioSummary*, core::WaveStats>
    WaveMemo::stats_;

// The section's claims evaluated on `runs`; none for a printed block.
std::vector<core::Claim> evaluate(const Section& section, const Runs& runs) {
  std::vector<core::Claim> rows;
  for (const Claim& c : section.claims) {
    Verdict v = c.check(runs);
    rows.push_back({c.what, c.paper, std::move(v.measured), v.holds});
  }
  return rows;
}

std::string mode_text(SyncMode mode) { return core::to_string(mode); }

Verdict mode_is(SyncMode mode, SyncMode want) {
  return {mode_text(mode), mode == want};
}

std::string sync_text(const core::SyncResult& sync) {
  return mode_text(sync.mode) + " (rho=" + fmt(sync.correlation) + ")";
}

// The standard summary of run 0 under `label`, then one strip chart per
// title, of monitored port 0, 1, ..., over the first `span` seconds of the
// measurement window.
Section summary_block(std::string label, double span, int height,
                      std::vector<std::string> charts) {
  return block([=](std::ostream& os, const Runs& r) {
    const ScenarioSummary& s = r[0];
    core::print_summary(os, label, s);
    os << '\n';
    if (charts.empty()) return;
    for (std::size_t i = 0; i < charts.size(); ++i) {
      core::print_queue_chart(os, s.result.ports[i].queue, s.result.t_start,
                              s.result.t_start + span, 100, height,
                              charts[i]);
    }
    os << '\n';
  });
}

// Monitored port `port`'s largest queue over the window.
double queue_max(const ScenarioSummary& s, std::size_t port) {
  return s.result.ports[port].queue.max_in(s.result.t_start, s.result.t_end);
}

// The two bottleneck directions' goodput series, in `bin`-second bins.
core::SyncResult bandwidth_sync(const ScenarioSummary& s, double bin) {
  return core::classify_throughput_alternation(
      s.result.ports[0], 0, s.result.ports[1], 1, s.result.t_start,
      s.result.t_end, bin);
}

// ------------------------------------------------------------- E1, E2

ClaimSet fig2_oneway() {
  const core::TopoSpec large = core::fig2_one_way(3, 1.0, 20);
  std::vector<Claim> fig2 = {
      {"utilization", "~90%", [](const Runs& r) {
         const double u = r[0].util_fwd;
         return Verdict{fmt_pct(u), u > 0.8 && u < 0.97};
       }},
      {"loss synchronization", "all conns lose every epoch",
       [](const Runs& r) {
         const double m = r[0].epochs.multi_loser_fraction;
         return Verdict{fmt_pct(m) + " multi-loser", m > 0.9};
       }},
      {"drops per epoch", "3 (one per conn = acceleration)",
       [](const Runs& r) {
         const double d = r[0].epochs.mean_drops_per_epoch;
         return Verdict{fmt(d), d > 2.5 && d < 3.5};
       }},
      {"cwnd sync", "in-phase", [](const Runs& r) {
         return mode_is(r[0].cwnd_sync.mode, SyncMode::kInPhase);
       }},
      {"oscillation period", "~34 s", [](const Runs& r) {
         const std::optional<double> p = r[0].period_fwd;
         return Verdict{p ? fmt(*p, 1) + "s" : "none",
                        p && *p > 25.0 && *p < 45.0};
       }},
      {"packet clustering", "complete", [](const Runs& r) {
         const double run = r[0].clustering_fwd.mean_run_length;
         return Verdict{"mean run " + fmt(run), run > 5.0};
       }},
      {"queue smoothness", "no rapid fluctuations (one-way)",
       [](const Runs& r) {
         const double range = r[0].fluct_fwd.mean_range;
         return Verdict{"mean range/tx " + fmt(range), range < 1.5};
       }},
      {"ACK clocking", "ACK gaps = data tx time, none compressed",
       [](const Runs& r) {
         const double c = core::max_ack_compression(r[0]);
         return Verdict{fmt_pct(c) + " compressed", c < 0.01};
       }},
  };
  std::vector<Claim> small_pipe = {
      {"utilization (small pipe)", "~100%", [](const Runs& r) {
         return Verdict{fmt_pct(r[1].util_fwd), r[1].util_fwd > 0.97};
       }},
      {"utilization ordering", "small pipe > large pipe", [](const Runs& r) {
         const double small = r[1].util_fwd;
         const double large = r[0].util_fwd;
         return Verdict{fmt_pct(small) + " vs " + fmt_pct(large),
                        small > large};
       }},
  };
  return {"fig2_oneway",
          {{large}, {core::fig2_one_way(3, 0.01, 20)}},
          {summary_block(large.name + " (tau=1s)", 120.0, 10,
                         {"Fig.2 top: bottleneck queue (packets)"}),
           table("Fig. 2 (tau=1s)", std::move(fig2)),
           table("§3.1 (tau=0.01s)", std::move(small_pipe))}};
}

// Larger buffers need the longer run to show many (longer) cycles.
ClaimSet oneway_buffer_sweep() {
  const std::vector<double> buffers = {10, 20, 40, 80};
  ClaimSet set{"oneway_buffer_sweep", {}, {}};
  for (const double b : buffers) {
    core::TopoSpec spec =
        core::fig2_one_way(3, 1.0, static_cast<std::size_t>(b));
    spec.duration = sim::Time::seconds(1200.0);
    set.runs.push_back({std::move(spec)});
  }
  std::vector<Claim> claims;
  for (std::size_t i = 1; i < buffers.size(); ++i) {
    claims.push_back({"idle falls, B=" + fmt(buffers[i - 1], 0) + " -> " +
                          fmt(buffers[i], 0),
                      "decreases with buffer size", [i](const Runs& r) {
                        const double before = 1.0 - r[i - 1].util_fwd;
                        const double after = 1.0 - r[i].util_fwd;
                        return Verdict{fmt_pct(before) + " -> " +
                                           fmt_pct(after),
                                       after <= before + 0.01};
                      }});
  }
  claims.push_back({"idle at B=80", "< 6%", [](const Runs& r) {
                      const double idle = 1.0 - r[3].util_fwd;
                      return Verdict{fmt_pct(idle), idle <= 0.06};
                    }});
  // B^-2 predicts ~16x less idle at 4x the buffer.
  claims.push_back({"B^-2 shape", "idle(B=80) far below idle(B=20)",
                    [](const Runs& r) {
                      const double idle80 = 1.0 - r[3].util_fwd;
                      const double idle20 = 1.0 - r[1].util_fwd;
                      return Verdict{fmt_pct(idle80) + " vs " +
                                         fmt_pct(idle20),
                                     idle80 <= 0.5 * idle20};
                    }});
  set.sections = {
      block([buffers](std::ostream& os, const Runs& r) {
        util::Table t({"buffer (pkts)", "utilization", "idle fraction",
                       "epoch interval"});
        for (std::size_t i = 0; i < r.size(); ++i) {
          t.add_row({fmt(buffers[i], 0), fmt_pct(r[i].util_fwd),
                     fmt_pct(1.0 - r[i].util_fwd),
                     fmt(r[i].epochs.mean_interval, 1) + "s"});
        }
        os << "§3.1 one-way: idle time vs buffer size (paper: idle -> 0, "
              "roughly as B^-2)\n";
        t.print(os);
      }),
      table("§3.1 idle time vs buffer", std::move(claims))};
  return set;
}

// ------------------------------------------------------------------ E3

ClaimSet fig3_ten_conns() {
  const core::TopoSpec b30 = core::fig3_ten_connections(30);
  std::vector<Claim> claims = {
      {"utilization (B=30)", "~91%", [](const Runs& r) {
         const double u = r[0].util_fwd;
         return Verdict{fmt_pct(u), u > 0.82 && u < 0.97};
       }},
      {"utilization (B=60)", "lower, ~87% (more buffer hurts)",
       [](const Runs& r) {
         return Verdict{fmt_pct(r[1].util_fwd),
                        r[1].util_fwd < r[0].util_fwd + 0.005};
       }},
      {"queue sync", "out-of-phase across switches", [](const Runs& r) {
         return mode_is(r[0].queue_sync.mode, SyncMode::kOutOfPhase);
       }},
      {"rapid fluctuations", "~5 pkts within < 1 data tx time",
       [](const Runs& r) {
         const double rise = r[0].fluct_fwd.max_burst_rise;
         return Verdict{fmt(rise, 0) + " pkts max burst", rise >= 4.0};
       }},
      {"data-drop share", "99.8% (ACKs never dropped)", [](const Runs& r) {
         const double d = r[0].epochs.data_drop_fraction;
         return Verdict{fmt_pct(d), d > 0.99};
       }},
      {"drops per epoch", "~10 (= total acceleration), varies",
       [](const Runs& r) {
         const double d = r[0].epochs.mean_drops_per_epoch;
         return Verdict{fmt(d), d > 6.0 && d < 16.0};
       }},
      {"loss sync", "majority of conns lose in same epoch",
       [](const Runs& r) {
         const double m = r[0].epochs.multi_loser_fraction;
         return Verdict{fmt_pct(m) + " multi-loser", m > 0.5};
       }},
      {"ACK-compression", "present (drives the fluctuations)",
       [](const Runs& r) {
         double mean = 0.0;
         for (const auto& [conn, a] : r[0].ack) mean += a.compressed_fraction;
         mean /= static_cast<double>(r[0].ack.size());
         return Verdict{fmt_pct(mean) + " gaps compressed", mean > 0.2};
       }},
      {"clustering", "partial (narrower plateaus than 2-conn case)",
       [](const Runs& r) {
         const double run = r[0].clustering_fwd.mean_run_length;
         return Verdict{"mean run " + fmt(run), run > 1.5 && run < 10.0};
       }},
  };
  return {"fig3_ten_conns",
          {{b30}, {core::fig3_ten_connections(60)}},
          {summary_block(b30.name + " (buffer 30)", 30.0, 10,
                         {"Fig.3 top: queue at switch 1",
                          "Fig.3 bottom: queue at switch 2"}),
           table("Fig. 3 / §3.2", std::move(claims))}};
}

// ------------------------------------------------------------------ E4

// The victim's window growth exponent over the first cycle after one of
// its drops that yields one.
std::optional<double> regrowth_exponent(const ScenarioSummary& s) {
  const auto& epochs = s.epochs.epochs;
  for (std::size_t i = 0; i + 1 < epochs.size(); ++i) {
    if (!epochs[i].drops_by_conn.count(0)) continue;
    double cycle_end = epochs[i + 1].start - 0.5;
    for (std::size_t j = i + 1; j < epochs.size(); ++j) {
      if (epochs[j].drops_by_conn.count(0)) {
        cycle_end = epochs[j].start - 0.5;
        break;
      }
    }
    const std::optional<double> exponent = core::cwnd_growth_exponent(
        s.result.cwnd.at(0), epochs[i].end + 0.5, cycle_end);
    if (exponent) return exponent;
  }
  return std::nullopt;
}

// Connection 0's goodput x RTT over the window.
core::EffectivePipe pipe_of(const ScenarioSummary& s) {
  return core::effective_pipe(s.result, 0, s.result.t_start, s.result.t_end);
}

ClaimSet fig4_5_twoway_small_pipe() {
  const std::vector<std::size_t> buffers = {20, 60, 120};
  ClaimSet set{"fig4_5_twoway_small_pipe", {}, {}};
  for (const std::size_t b : buffers) {
    set.runs.push_back({core::fig4_twoway(0.01, b)});
  }
  std::vector<Claim> figs = {
      {"utilization fwd", "~70% (well below one-way ~100%)",
       [](const Runs& r) {
         const double u = r[0].util_fwd;
         return Verdict{fmt_pct(u), u > 0.5 && u < 0.92};
       }},
      {"window sync", "out-of-phase", [](const Runs& r) {
         return mode_is(r[0].cwnd_sync.mode, SyncMode::kOutOfPhase);
       }},
      {"drops per epoch", "2 (= total acceleration)", [](const Runs& r) {
         const double d = r[0].epochs.mean_drops_per_epoch;
         return Verdict{fmt(d), d > 1.5 && d < 2.8};
       }},
      {"single-loser epochs", "~100% (one conn takes both drops)",
       [](const Runs& r) {
         const double f = r[0].epochs.single_loser_fraction;
         return Verdict{fmt_pct(f), f > 0.7};
       }},
      {"loser alternates", "yes, every epoch", [](const Runs& r) {
         const double f = r[0].epochs.loser_alternation_fraction;
         return Verdict{fmt_pct(f), f > 0.6};
       }},
      {"ACK-compression", "large fraction of compressed gaps",
       [](const Runs& r) {
         const double c = core::max_ack_compression(r[0]);
         return Verdict{fmt_pct(c), c > 0.2};
       }},
      {"rapid queue fluctuation", ">= several packets per tx time",
       [](const Runs& r) {
         const double rise = r[0].fluct_fwd.max_burst_rise;
         return Verdict{fmt(rise) + " pkts burst", rise >= 3.0};
       }},
      {"packet clustering", "complete (long same-conn runs)",
       [](const Runs& r) {
         const double run = r[0].clustering_fwd.mean_run_length;
         return Verdict{"mean run " + fmt(run), run > 4.0};
       }},
      {"bandwidth alternation", "goodput series out-of-phase",
       [](const Runs& r) {
         const core::SyncResult alt = bandwidth_sync(r[0], 2.5);
         return Verdict{sync_text(alt), alt.mode == SyncMode::kOutOfPhase};
       }},
      {"victim window regrowth", "sublinear (~sqrt of time) over the cycle",
       [](const Runs& r) {
         const std::optional<double> e = regrowth_exponent(r[0]);
         return Verdict{e ? "t^" + fmt(*e) : "unmeasured",
                        e.has_value() && *e > 0.3 && *e < 0.95};
       }},
  };
  std::vector<Claim> growth;
  for (std::size_t i = 1; i < buffers.size(); ++i) {
    growth.push_back({"utilization (B=" + std::to_string(buffers[i]) + ")",
                      "stays below optimal", [i](const Runs& r) {
                        const double u = r[i].util_fwd;
                        return Verdict{fmt_pct(u), u <= 0.93};
                      }});
  }
  // The physical pipe is 0.125 packets.
  growth.push_back({"effective pipe (B=20 -> 120)",
                    "far above the physical pipe, grows with the buffer",
                    [](const Runs& r) {
                      const double small = pipe_of(r[0]).packets;
                      const double large = pipe_of(r[2]).packets;
                      return Verdict{fmt(small, 1) + " -> " + fmt(large, 1) +
                                         " pkts",
                                     small > 1.0 && large > 2.0 * small};
                    }});
  set.sections = {
      summary_block(set.runs[0].spec.name + " (buffer 20)", 40.0, 10,
                    {"Fig.4 top: queue at switch 1 (first 40s of window)",
                     "Fig.4 bottom: queue at switch 2"}),
      table("Figs. 4-5 (buffer 20)", std::move(figs)),
      block([buffers](std::ostream& os, const Runs& r) {
        util::Table t({"buffer", "util fwd", "util rev", "sync (queue)",
                       "mean RTT conn0", "effective pipe (pkts)"});
        for (std::size_t i = 0; i < r.size(); ++i) {
          const core::EffectivePipe ep = pipe_of(r[i]);
          t.add_row({std::to_string(buffers[i]), fmt_pct(r[i].util_fwd),
                     fmt_pct(r[i].util_rev), mode_text(r[i].queue_sync.mode),
                     fmt(ep.mean_rtt, 2) + "s", fmt(ep.packets, 1)});
        }
        os << "\n§4.3.1: utilization vs buffer size (paper: stays ~70%; the "
              "effective pipe grows with the buffer)\n";
        t.print(os);
      }),
      table("§4.3.1 utilization vs buffer size", std::move(growth))};
  return set;
}

// ------------------------------------------------------------------ E5

// The share of the window in which both bottleneck queues are empty, so
// both lines idle together.
double both_idle_fraction(const core::ExperimentResult& r) {
  const double dt = 0.05;
  const auto a = r.ports[0].queue.resample(r.t_start, r.t_end, dt);
  const auto b = r.ports[1].queue.resample(r.t_start, r.t_end, dt);
  std::size_t both = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] <= 0.0 && b[i] <= 0.0) ++both;
  }
  return static_cast<double>(both) / static_cast<double>(a.size());
}

// Run 1 is the one-way baseline at the same pipe size.
ClaimSet fig6_7_twoway_large_pipe() {
  const core::TopoSpec spec = core::fig6_twoway(1.0, 20);
  std::vector<Claim> claims = {
      {"utilization", "~60% (well below one-way ~90%)", [](const Runs& r) {
         const double u = r[0].util_fwd;
         return Verdict{fmt_pct(u), u > 0.45 && u < 0.8};
       }},
      {"vs one-way baseline", "one-way much higher", [](const Runs& r) {
         return Verdict{fmt_pct(r[1].util_fwd) + " one-way",
                        r[1].util_fwd > r[0].util_fwd + 0.1};
       }},
      {"queue sync", "in-phase", [](const Runs& r) {
         return mode_is(r[0].queue_sync.mode, SyncMode::kInPhase);
       }},
      {"cwnd sync", "in-phase", [](const Runs& r) {
         return mode_is(r[0].cwnd_sync.mode, SyncMode::kInPhase);
       }},
      {"drops per epoch", "2 total, one per connection", [](const Runs& r) {
         const double d = r[0].epochs.mean_drops_per_epoch;
         return Verdict{fmt(d), d > 1.5 && d < 2.6};
       }},
      {"loss sync", "both conns lose in the same epoch", [](const Runs& r) {
         const double m = r[0].epochs.multi_loser_fraction;
         return Verdict{fmt_pct(m), m > 0.7};
       }},
      {"both lines idle together", "happens (unlike small pipe)",
       [](const Runs& r) {
         const double idle = both_idle_fraction(r[0].result);
         return Verdict{fmt_pct(idle), idle > 0.02};
       }},
      {"ACK-compression", "present", [](const Runs& r) {
         const double c = r[0].ack.at(0).compressed_fraction;
         return Verdict{fmt_pct(c), c > 0.1};
       }},
      {"bandwidth sharing", "goodput series move together",
       [](const Runs& r) {
         const core::SyncResult alt = bandwidth_sync(r[0], 10.0);
         return Verdict{sync_text(alt), alt.mode == SyncMode::kInPhase};
       }},
  };
  return {"fig6_7_twoway_large_pipe",
          {{spec}, {core::fig2_one_way(2, 1.0, 20)}},
          {summary_block(spec.name, 120.0, 10,
                         {"Fig.6 top: queue at switch 1",
                          "Fig.6 bottom: queue at switch 2"}),
           table("Figs. 6-7 / §4.3.2", std::move(claims))}};
}

// ------------------------------------------------------------- E6, E7

// The summary and the two queue charts of fixed-window figure `fig`.
Section fixed_window_block(const core::TopoSpec& spec, const std::string& fig) {
  return summary_block(spec.name, 20.0, 12,
                       {"Fig." + fig + " top: queue at switch 1",
                        "Fig." + fig + " bottom: queue at switch 2"});
}

Claim no_drops(const char* paper) {
  return {"no drops", paper, [](const Runs& r) {
            const auto& drops = r[0].result.drops;
            return Verdict{std::to_string(drops.size()) + " drops",
                           drops.empty()};
          }};
}

Claim square_waves(const char* paper) {
  return {"square waves", paper, [](const Runs& r) {
            const double rise = r[0].fluct_fwd.max_burst_rise;
            return Verdict{fmt(rise, 0) + " pkts/tx", rise >= 5.0};
          }};
}

ClaimSet fig8_fixed_window() {
  const core::TopoSpec spec = core::fig8_fixed_window(0.01, 30, 25);
  std::vector<Claim> claims = {
      {"queue 1 maximum", "55 packets", [](const Runs& r) {
         const double q1 = queue_max(r[0], 0);
         return Verdict{fmt(q1, 0), q1 > 50.0 && q1 < 58.0};
       }},
      {"queue 2 maximum", "23 packets", [](const Runs& r) {
         const double q2 = queue_max(r[0], 1);
         return Verdict{fmt(q2, 0), q2 > 20.0 && q2 < 26.0};
       }},
      {"different maxima", "Q1 max >> Q2 max", [](const Runs& r) {
         const double q1 = queue_max(r[0], 0);
         const double q2 = queue_max(r[0], 1);
         return Verdict{fmt(q1, 0) + " vs " + fmt(q2, 0), q1 > q2 + 20.0};
       }},
      {"one line fully utilized", "utilization fwd ~100%", [](const Runs& r) {
         return Verdict{fmt_pct(r[0].util_fwd), r[0].util_fwd > 0.99};
       }},
      {"other line idle", "~86%", [](const Runs& r) {
         const double u = r[0].util_rev;
         return Verdict{fmt_pct(u), u > 0.78 && u < 0.94};
       }},
      {"ACK gap compression", "min gap = ACK tx time (8 ms), not 80 ms",
       [](const Runs& r) {
         const double ack_tx = 50.0 * 8.0 / 50'000.0;  // 8 ms
         const double gap = r[0].ack.at(0).min_gap;
         return Verdict{fmt(gap * 1000.0, 1) + " ms", gap < ack_tx * 1.5};
       }},
      square_waves("rapid rises of many packets"),
      no_drops("infinite buffers, no losses"),
      {"queues out-of-phase", "one full while other empty",
       [](const Runs& r) {
         return mode_is(r[0].queue_sync.mode, SyncMode::kOutOfPhase);
       }},
  };
  return {"fig8_fixed_window",
          {{spec}},
          {fixed_window_block(spec, "8"),
           table("Fig. 8 / §4.2", std::move(claims))}};
}

ClaimSet fig9_fixed_window() {
  const core::TopoSpec spec = core::fig8_fixed_window(1.0, 30, 25);
  std::vector<Claim> claims = {
      {"equal maxima", "both queues reach ~23", [](const Runs& r) {
         const double q1 = queue_max(r[0], 0);
         const double q2 = queue_max(r[0], 1);
         return Verdict{fmt(q1, 0) + " and " + fmt(q2, 0),
                        std::abs(q1 - q2) <= 2.0 && q1 > 19.0 && q1 < 27.0};
       }},
      {"line 1 utilization", "~81%", [](const Runs& r) {
         const double u = r[0].util_fwd;
         return Verdict{fmt_pct(u), u > 0.72 && u < 0.9};
       }},
      {"line 2 utilization", "~70%", [](const Runs& r) {
         const double u = r[0].util_rev;
         return Verdict{fmt_pct(u), u > 0.6 && u < 0.8};
       }},
      {"neither fully utilized", "W1-W2=5 < 2P=25 => both idle",
       [](const Runs& r) {
         const double fwd = r[0].util_fwd;
         const double rev = r[0].util_rev;
         return Verdict{fmt_pct(fwd) + "/" + fmt_pct(rev),
                        fwd < 0.97 && rev < 0.97};
       }},
      square_waves("rapid many-packet rises"),
      no_drops("infinite buffers"),
  };
  return {"fig9_fixed_window",
          {{spec}},
          {fixed_window_block(spec, "9"),
           table("Fig. 9 / §4.2", std::move(claims))}};
}

// ------------------------------------------------------------------ E8

ClaimSet conjecture_zero_ack() {
  struct Case {
    std::uint32_t w1;
    std::uint32_t w2;
    double tau;
    // 2P = 2 * bps * tau / (8 * 500) = 25 * tau packets.
    double two_p() const { return 2.0 * 50'000.0 * tau / (8.0 * 500.0); }
    bool regime1() const {
      return static_cast<double>(w1) > static_cast<double>(w2) + two_p();
    }
    const char* predicted() const {
      return regime1() ? "one full, maxima differ"
                       : "neither full, maxima equal";
    }
  };
  const std::vector<Case> cases = {
      // Regime 1: W1 > W2 + 2P.
      {30, 10, 0.2},   // 2P = 5,  30 > 15
      {30, 25, 0.01},  // 2P = 0.25 (Fig. 8's parameters)
      {60, 20, 1.0},   // 2P = 25, 60 > 45
      {40, 10, 0.4},   // 2P = 10, 40 > 20
      // Regime 2: W1 < W2 + 2P.
      {30, 28, 0.2},   // 2P = 5,  30 < 33
      {30, 25, 1.0},   // 2P = 25 (Fig. 9's parameters)
      {12, 10, 0.4},   // 2P = 10, 12 < 20
      {26, 25, 0.2},   // 2P = 5,  26 < 30
  };
  ClaimSet set{"conjecture_zero_ack", {}, {}};
  std::vector<Claim> claims;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    set.runs.push_back({core::zero_ack_fixed(c.w1, c.w2, c.tau)});
    claims.push_back(
        {"W1=" + std::to_string(c.w1) + " W2=" + std::to_string(c.w2) +
             " 2P=" + fmt(c.two_p(), 2),
         c.predicted(), [i, regime1 = c.regime1()](const Runs& r) {
           constexpr double kFull = 0.985;  // "fully utilized" tolerance
           const ScenarioSummary& s = r[i];
           const double q1 = queue_max(s, 0);
           const double q2 = queue_max(s, 1);
           const bool full1 = s.util_fwd >= kFull;
           const bool full2 = s.util_rev >= kFull;
           return Verdict{"max " + fmt(q1, 0) + "/" + fmt(q2, 0) + ", util " +
                              fmt_pct(s.util_fwd) + "/" + fmt_pct(s.util_rev),
                          regime1 ? full1 != full2 && q1 > q2 + 5.0
                                  : !full1 && !full2 &&
                                        std::abs(q1 - q2) <= 1.0};
         }});
  }
  set.sections = {
      block([cases](std::ostream& os, const Runs& r) {
        util::Table t({"W1", "W2", "2P", "predicted", "q1 max", "q2 max",
                       "util 1", "util 2", "rho"});
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const Case& c = cases[i];
          const ScenarioSummary& s = r[i];
          t.add_row({std::to_string(c.w1), std::to_string(c.w2),
                     fmt(c.two_p(), 2), c.predicted(), fmt(queue_max(s, 0), 0),
                     fmt(queue_max(s, 1), 0), fmt_pct(s.util_fwd),
                     fmt_pct(s.util_rev), fmt(s.queue_sync.correlation)});
        }
        os << "§4.3.3 conjecture, zero-length ACKs (W1 vs W2 + 2P)\n";
        t.print(os);
      }),
      table("§4.3.3 zero-length-ACK regimes", std::move(claims))};
  return set;
}

// ------------------------------------------------------------------ E9

// The window-synchronization mode from the cwnd series (the paper's
// definition) when it classifies, else from the queues.
SyncMode window_mode(const ScenarioSummary& s) {
  return s.cwnd_sync.mode != SyncMode::kUnclassified ? s.cwnd_sync.mode
                                                     : s.queue_sync.mode;
}

// Runs at tau >= 0.5 s take 800 s with an 8 s epoch gap.
ClaimSet sync_mode_map() {
  const std::vector<double> buffers = {10, 20, 60};
  const std::vector<double> taus = {0.01, 0.25, 1.0};
  ClaimSet set{"sync_mode_map", {}, {}};
  // Run i * 3 + j is buffers[i] x taus[j].
  for (const double b : buffers) {
    for (const double tau : taus) {
      core::TopoSpec spec =
          core::fig4_twoway(tau, static_cast<std::size_t>(b));
      if (tau >= 0.5) {
        spec.duration = sim::Time::seconds(800.0);
        spec.epoch_gap_sec = 8.0;
      }
      set.runs.push_back({std::move(spec)});
    }
  }
  const auto corner = [](std::string what, std::size_t run, SyncMode want) {
    return Claim{std::move(what), mode_text(want), [run, want](const Runs& r) {
                   return mode_is(window_mode(r[run]), want);
                 }};
  };
  set.sections = {
      block([buffers](std::ostream& os, const Runs& r) {
        util::Table t({"buffer \\ tau (P)", "0.01s (P=0.125)",
                       "0.25s (P=3.125)", "1s (P=12.5)"});
        for (std::size_t i = 0; i < buffers.size(); ++i) {
          std::vector<std::string> row{fmt(buffers[i], 0)};
          for (std::size_t j = 0; j < 3; ++j) {
            const ScenarioSummary& s = r[i * 3 + j];
            row.push_back(mode_text(window_mode(s)) + " (rho=" +
                          fmt(s.cwnd_sync.correlation) + ")");
          }
          t.add_row(row);
        }
        os << "Synchronization-mode map for two-way Tahoe traffic\n";
        t.print(os);
      }),
      table("§4.3.3 sync-mode map corners",
            {corner("B=20, tau=0.01 (Figs. 4-5)", 3, SyncMode::kOutOfPhase),
             corner("B=20, tau=1 (Figs. 6-7)", 5, SyncMode::kInPhase),
             corner("B=60, tau=0.01", 6, SyncMode::kOutOfPhase),
             corner("B=10, tau=1", 2, SyncMode::kInPhase)})};
  return set;
}

// ----------------------------------------------------------- E10, E11

// Compressed-gap fractions are not comparable across the three runs
// (delayed ACKs halve the ACK count), so the claims read the bursts and the
// cluster runs.
ClaimSet delayed_ack() {
  const auto run = [](const ScenarioSummary& s) {
    return s.clustering_fwd.mean_run_length;
  };
  const auto burst = [](const ScenarioSummary& s) {
    return s.fluct_fwd.max_burst_rise;
  };
  std::vector<Claim> claims = {
      {"small windows cut the clusters", "small partial clusters",
       [run](const Runs& r) {
         return Verdict{"mean run " + fmt(run(r[1])) + " vs " +
                            fmt(run(r[0])) + " off",
                        run(r[1]) < 0.6 * run(r[0])};
       }},
      {"small windows and bursts", "ACK-compression bursts minimized",
       [burst](const Runs& r) {
         return Verdict{fmt(burst(r[1]), 0) + " vs " + fmt(burst(r[0]), 0) +
                            " pkts off",
                        burst(r[1]) < 0.6 * burst(r[0])};
       }},
      {"large windows and bursts", "reduced, not eliminated",
       [burst](const Runs& r) {
         return Verdict{fmt(burst(r[2]), 0) + " vs " + fmt(burst(r[1]), 0) +
                            " pkts at maxwnd=8",
                        burst(r[2]) > burst(r[1])};
       }},
  };
  return {"delayed_ack",
          {{core::fig4_twoway(0.01, 20)},
           {core::delayed_ack_twoway(8, 0.01, 20)},
           {core::delayed_ack_twoway(1000, 0.01, 20)}},
          {block([](std::ostream& os, const Runs& r) {
             const char* labels[] = {"delayed-ACK off",
                                     "delayed-ACK on, maxwnd=8",
                                     "delayed-ACK on, maxwnd=1000"};
             util::Table t({"configuration", "ACK-compressed fraction",
                            "mean cluster run", "max burst rise", "util fwd"});
             for (std::size_t i = 0; i < r.size(); ++i) {
               t.add_row({labels[i], fmt_pct(core::max_ack_compression(r[i])),
                          fmt(r[i].clustering_fwd.mean_run_length),
                          fmt(r[i].fluct_fwd.max_burst_rise, 0),
                          fmt_pct(r[i].util_fwd)});
             }
             os << "§5: effect of the delayed-ACK option (tau=0.01s, B=20)\n";
             t.print(os);
           }),
           table("§5 delayed ACKs", std::move(claims))}};
}

// The mean compressed-gap fraction over connections with at least 50 ACK
// gaps in the window.
double mean_ack_compression(const ScenarioSummary& s) {
  double mean = 0.0;
  std::size_t n = 0;
  for (const auto& [conn, a] : s.ack) {
    if (a.gaps < 50) continue;
    mean += a.compressed_fraction;
    ++n;
  }
  return mean / static_cast<double>(std::max<std::size_t>(1, n));
}

core::FluctuationStats fluctuations(const ScenarioSummary& s,
                                    const core::PortTrace& p) {
  return core::rapid_fluctuations(p.queue, s.result.t_start, s.result.t_end,
                                  s.result.data_tx_time);
}

// The queue sync of each trunk's two directions, ports 2k and 2k + 1.
std::vector<core::SyncResult> trunk_syncs(const ScenarioSummary& s) {
  std::vector<core::SyncResult> out;
  const auto& ports = s.result.ports;
  for (std::size_t i = 0; i + 1 < ports.size(); i += 2) {
    out.push_back(core::classify_sync(ports[i].queue, ports[i + 1].queue,
                                      s.result.t_start, s.result.t_end));
  }
  return out;
}

ClaimSet four_switch() {
  std::vector<Claim> claims = {
      {"rapid fluctuations", "persist in the complex topology",
       [](const Runs& r) {
         double m = 0.0;
         for (const auto& p : r[0].result.ports) {
           m = std::max(m, fluctuations(r[0], p).max_burst_rise);
         }
         return Verdict{fmt(m, 0) + " pkts max burst", m >= 4.0};
       }},
      {"ACK-compression", "present", [](const Runs& r) {
         const double c = mean_ack_compression(r[0]);
         return Verdict{fmt_pct(c), c >= 0.15};
       }},
      {"out-of-phase trunks", "at least one trunk", [](const Runs& r) {
         const std::vector<core::SyncResult> syncs = trunk_syncs(r[0]);
         const auto n = std::count_if(
             syncs.begin(), syncs.end(), [](const core::SyncResult& x) {
               return x.mode == SyncMode::kOutOfPhase;
             });
         return Verdict{
             std::to_string(n) + " of " + std::to_string(syncs.size()),
             n >= 1};
       }},
      // A compressed ACK cluster leaving one trunk queue reaches the next
      // at the ACK rate and can overflow it, unlike at a single bottleneck.
      {"data-drop share", "data packets dominate the drops",
       [](const Runs& r) {
         const double d = r[0].epochs.data_drop_fraction;
         const std::size_t drops = r[0].result.drops.size();
         return Verdict{fmt_pct(d) + " of " + std::to_string(drops),
                        d >= 0.6 || drops == 0};
       }},
  };
  return {"four_switch",
          {{core::four_switch_chain(50, 7)}},
          {block([](std::ostream& os, const Runs& r) {
             const ScenarioSummary& s = r[0];
             util::Table t({"trunk port", "utilization",
                            "max burst rise (pkts/tx)", "max queue"});
             for (const auto& p : s.result.ports) {
               t.add_row({p.name, fmt_pct(p.utilization),
                          fmt(fluctuations(s, p).max_burst_rise, 0),
                          fmt(p.queue.max_in(s.result.t_start, s.result.t_end),
                              0)});
             }
             os << "§5 four-switch chain, 50 connections (1-3 hop paths)\n";
             t.print(os);
             os << "mean ACK-compressed gap fraction: "
                << fmt_pct(mean_ack_compression(s)) << "\n";
             const std::vector<core::SyncResult> syncs = trunk_syncs(s);
             for (std::size_t k = 0; k < syncs.size(); ++k) {
               os << s.result.ports[2 * k].name << " vs "
                  << s.result.ports[2 * k + 1].name << ": "
                  << sync_text(syncs[k]) << "\n";
             }
             os << "drops observed: " << s.result.drops.size()
                << ", data-drop fraction "
                << fmt_pct(s.epochs.data_drop_fraction) << "\n";
           }),
           table("§5 four-switch chain", std::move(claims))}};
}

// ------------------------------------------------------ E12, E14, E15

ClaimSet pacing_ablation() {
  std::vector<Claim> claims = {
      {"ACK-compression", "strongly reduced by pacing", [](const Runs& r) {
         const double paced = core::max_ack_compression(r[1]);
         const double nonpaced = core::max_ack_compression(r[0]);
         return Verdict{fmt_pct(paced) + " vs " + fmt_pct(nonpaced) +
                            " nonpaced",
                        paced < 0.5 * nonpaced};
       }},
      {"rapid fluctuations", "not increased by pacing", [](const Runs& r) {
         const double paced = r[1].fluct_fwd.max_burst_rise;
         const double nonpaced = r[0].fluct_fwd.max_burst_rise;
         return Verdict{fmt(paced, 0) + " vs " + fmt(nonpaced, 0) +
                            " pkts nonpaced",
                        paced <= nonpaced};
       }},
      {"total utilization", "improved by pacing", [](const Runs& r) {
         const double paced = r[1].util_fwd + r[1].util_rev;
         const double nonpaced = r[0].util_fwd + r[0].util_rev;
         return Verdict{"fwd+rev " + fmt_pct(paced) + " vs " +
                            fmt_pct(nonpaced) + " nonpaced",
                        paced > nonpaced};
       }},
  };
  return {"pacing_ablation",
          {{core::fig4_twoway(0.01, 20)}, {core::paced_twoway(0.01, 20)}},
          {block([](std::ostream& os, const Runs& r) {
             const char* labels[] = {"nonpaced Tahoe", "paced Tahoe (80ms)"};
             util::Table t({"variant", "ACK-compressed", "mean cluster run",
                            "max burst rise", "util fwd", "util rev"});
             for (std::size_t i = 0; i < r.size(); ++i) {
               t.add_row({labels[i], fmt_pct(core::max_ack_compression(r[i])),
                          fmt(r[i].clustering_fwd.mean_run_length),
                          fmt(r[i].fluct_fwd.max_burst_rise, 0),
                          fmt_pct(r[i].util_fwd), fmt_pct(r[i].util_rev)});
             }
             os << "Pacing ablation (two-way, tau=0.01s, B=20)\n";
             t.print(os);
           }),
           table("§6 pacing ablation", std::move(claims))}};
}

ClaimSet reno_twoway() {
  const core::TopoSpec spec = core::reno_twoway(0.01, 20);
  std::vector<Claim> claims = {
      {"ACK-compression", "persists under Reno", [](const Runs& r) {
         const double c = core::max_ack_compression(r[0]);
         return Verdict{fmt_pct(c), c > 0.2};
       }},
      {"packet clustering", "persists (nonpaced sender)", [](const Runs& r) {
         const double run = r[0].clustering_fwd.mean_run_length;
         return Verdict{"mean run " + fmt(run), run > 4.0};
       }},
      {"window sync", "out-of-phase (small pipe)", [](const Runs& r) {
         return mode_is(r[0].cwnd_sync.mode, SyncMode::kOutOfPhase);
       }},
      {"rapid fluctuations", "square waves persist", [](const Runs& r) {
         const double rise = r[0].fluct_fwd.max_burst_rise;
         return Verdict{fmt(rise, 0) + " pkts/tx", rise >= 3.0};
       }},
      {"utilization", "below optimal", [](const Runs& r) {
         const double u = r[0].util_fwd;
         return Verdict{fmt_pct(u), u > 0.4 && u < 0.95};
       }},
      {"drops per epoch", "= total acceleration (2)", [](const Runs& r) {
         const double d = r[0].epochs.mean_drops_per_epoch;
         return Verdict{fmt(d), d > 1.4 && d < 3.0};
       }},
  };
  return {"reno_twoway",
          {{spec}},
          {summary_block(spec.name, 0.0, 0, {}),
           table("Reno generality conjecture", std::move(claims))}};
}

ClaimSet random_drop() {
  std::vector<Claim> claims = {
      {"ACK-compression", "persists under random drop", [](const Runs& r) {
         const double c = core::max_ack_compression(r[1]);
         return Verdict{fmt_pct(c), c >= 0.2};
       }},
      {"packet clustering", "persists under random drop", [](const Runs& r) {
         const double run = r[1].clustering_fwd.mean_run_length;
         return Verdict{"mean run " + fmt(run), run >= 4.0};
       }},
      {"queue sync", "out-of-phase persists (small pipe)", [](const Runs& r) {
         return mode_is(r[1].queue_sync.mode, SyncMode::kOutOfPhase);
       }},
      {"drop-tail data-drop share", "data packets only", [](const Runs& r) {
         const double d = r[0].epochs.data_drop_fraction;
         return Verdict{fmt_pct(d), d >= 0.999};
       }},
      {"random-drop data-drop share", "some queued ACKs dropped",
       [](const Runs& r) {
         const double d = r[1].epochs.data_drop_fraction;
         return Verdict{fmt_pct(d), d <= 0.98};
       }},
      {"single-loser epochs", "rarer under random drop", [](const Runs& r) {
         const double rnd = r[1].epochs.single_loser_fraction;
         const double tail = r[0].epochs.single_loser_fraction;
         return Verdict{fmt_pct(rnd) + " vs " + fmt_pct(tail) + " drop-tail",
                        rnd <= tail};
       }},
  };
  return {"random_drop",
          {{core::fig4_twoway(0.01, 20)}, {core::random_drop_twoway(0.01, 20)}},
          {block([](std::ostream& os, const Runs& r) {
             const char* labels[] = {"drop-tail", "random-drop"};
             util::Table t({"discipline", "util fwd", "ACK-compressed",
                            "cluster run", "single-loser", "data-drop frac"});
             for (std::size_t i = 0; i < r.size(); ++i) {
               t.add_row({labels[i], fmt_pct(r[i].util_fwd),
                          fmt_pct(core::max_ack_compression(r[i])),
                          fmt(r[i].clustering_fwd.mean_run_length),
                          fmt_pct(r[i].epochs.single_loser_fraction),
                          fmt_pct(r[i].epochs.data_drop_fraction)});
             }
             os << "Gateway discipline ablation (two-way, tau=0.01s, B=20)\n";
             t.print(os);
           }),
           table("Random Drop vs drop-tail", std::move(claims))}};
}

// ----------------------------------------------------- E16, §2.1 ablation

ClaimSet rtt_heterogeneity() {
  const double tx = 0.08;  // bottleneck data transmission time (s)
  const std::vector<double> spreads = {0.0, 0.25 * tx, 1.0 * tx, 2.0 * tx,
                                       4.0 * tx};
  ClaimSet set{"rtt_heterogeneity", {}, {}};
  for (const double spread : spreads) {
    set.runs.push_back({core::rtt_heterogeneity(3, spread)});
  }
  // Run `i`'s mean cluster run against run 0's, whose RTTs are identical.
  const auto clustering = [](std::string what, std::string paper,
                             std::size_t i, bool degraded) {
    return Claim{
        std::move(what), std::move(paper), [i, degraded](const Runs& r) {
          const double run = r[i].clustering_fwd.mean_run_length;
          const double base = r[0].clustering_fwd.mean_run_length;
          return Verdict{"mean run " + fmt(run) + " vs " + fmt(base) + " at 0",
                         degraded ? run <= 0.7 * base : run >= 0.7 * base};
        }};
  };
  set.sections = {
      block([=](std::ostream& os, const Runs& r) {
        util::Table t({"RTT spread (in tx times)", "mean cluster run",
                       "max cluster run", "utilization"});
        for (std::size_t i = 0; i < r.size(); ++i) {
          t.add_row({fmt(spreads[i] / tx, 2),
                     fmt(r[i].clustering_fwd.mean_run_length),
                     std::to_string(r[i].clustering_fwd.max_run_length),
                     fmt_pct(r[i].util_fwd)});
        }
        os << "§5: clustering vs round-trip-time heterogeneity (one-way, 3 "
              "conns)\n";
        t.print(os);
      }),
      table("§5 clustering vs RTT spread",
            {clustering("spread 0.25 tx", "preserved below 1 tx time", 1,
                        false),
             clustering("spread 4 tx", "clearly degraded", 4, true)})};
  return set;
}

ClaimSet increment_ablation() {
  std::vector<Claim> claims = {
      {"utilization", "qualitatively unchanged", [](const Runs& r) {
         const double paper = r[0].util_fwd;
         const double bsd = r[1].util_fwd;
         return Verdict{fmt_pct(paper) + " vs " + fmt_pct(bsd) + " BSD",
                        std::abs(paper - bsd) <= 0.08};
       }},
      {"cwnd sync (BSD)", "in-phase, unaffected", [](const Runs& r) {
         return mode_is(r[1].cwnd_sync.mode, SyncMode::kInPhase);
       }},
      {"loss sync (BSD)", "unaffected", [](const Runs& r) {
         const double m = r[1].epochs.multi_loser_fraction;
         return Verdict{fmt_pct(m) + " multi-loser", m >= 0.7};
       }},
      {"drops per epoch", "acceleration analysis holds for both",
       [](const Runs& r) {
         const double paper = r[0].epochs.mean_drops_per_epoch;
         const double bsd = r[1].epochs.mean_drops_per_epoch;
         return Verdict{fmt(paper) + " vs " + fmt(bsd) + " BSD",
                        std::abs(paper - bsd) <= 1.0};
       }},
  };
  return {"increment_ablation",
          {{core::increment_ablation(true)}, {core::increment_ablation(false)}},
          {block([](std::ostream& os, const Runs& r) {
             const char* labels[] = {"1/floor(cwnd) (paper)",
                                     "1/cwnd (original BSD)"};
             util::Table t({"increment", "utilization", "drops/epoch",
                            "epoch interval", "loss sync (multi-loser)",
                            "cwnd sync"});
             for (std::size_t i = 0; i < r.size(); ++i) {
               t.add_row({labels[i], fmt_pct(r[i].util_fwd),
                          fmt(r[i].epochs.mean_drops_per_epoch),
                          fmt(r[i].epochs.mean_interval, 1) + "s",
                          fmt_pct(r[i].epochs.multi_loser_fraction),
                          mode_text(r[i].cwnd_sync.mode)});
             }
             os << "§2.1: congestion-avoidance increment ablation (Fig. 2 "
                   "configuration)\n";
             t.print(os);
           }),
           table("§2.1 increment ablation", std::move(claims))}};
}

// --------------------------------------------------------- window bump

constexpr double kBumpTime = 70.0;
// One full cycle of the tau = 0.01 s system after the bump: (W1 + W2)
// packets x 80 ms + a round of propagation, with headroom.
constexpr double kBumpCycle = 55.0 * 0.08 + 2.0 * 0.01 + 1.0;

// Fixed windows w1 forward from t = 0 and w2 reverse from t = 1.7 s on the
// dumbbell `p`, measured from t = 0 for `duration_sec`.
core::TopoSpec fixed_pair(const core::DumbbellParams& p, std::uint32_t w1,
                          std::uint32_t w2, double duration_sec) {
  core::TopoSpec spec;
  spec.topo = core::dumbbell_topology(p);
  for (const bool forward : {true, false}) {
    core::ConnSpec c = core::dumbbell_flow(forward);
    c.kind = tcp::CcAlgorithm::kFixedWindow;
    c.fixed_window = forward ? w1 : w2;
    if (!forward) c.start_time = sim::Time::seconds(1.7);
    spec.traffic.add(std::move(c));
  }
  spec.warmup = sim::Time::zero();
  spec.duration = sim::Time::seconds(duration_sec);
  return spec;
}

// Both windows +1 at kBumpTime.
void bump(core::Experiment& exp) {
  exp.sim().schedule(sim::Time::seconds(kBumpTime), [&exp] {
    exp.connection(0).fixed()->set_window(31);
    exp.connection(1).fixed()->set_window(26);
  });
}

// Ramps the windows to 30/25, one packet every 1.5 s as the adaptive system
// arrives without startup bursts (done by t ~ 45 s), then bumps them.
void ramp_and_bump(core::Experiment& exp) {
  for (std::uint32_t step = 1; step < 30; ++step) {
    exp.sim().schedule(sim::Time::seconds(3.0 + 1.5 * step), [&exp, step] {
      exp.connection(0).fixed()->set_window(std::min(30u, step + 1));
      exp.connection(1).fixed()->set_window(std::min(25u, step + 1));
    });
  }
  bump(exp);
}

// The Fig. 8 run's drops: before the bump, and by kind in the cycle after.
struct BumpDrops {
  int conn0 = 0;
  int conn1 = 0;
  int acks = 0;
  int ramp = 0;
};

BumpDrops bump_drops(const ScenarioSummary& s) {
  BumpDrops out;
  for (const auto& d : s.result.drops) {
    if (d.time < kBumpTime) {
      ++out.ramp;
    } else if (d.time > kBumpTime + kBumpCycle) {
      continue;
    } else if (!d.data) {
      ++out.acks;
    } else if (d.conn == 0) {
      ++out.conn0;
    } else {
      ++out.conn1;
    }
  }
  return out;
}

// The Fig. 9 run's queue maxima before -> after the bump, and whether both
// rise past 23 from at most 23. The overflow the paper predicts happens in
// the first cycle after the bump.
Verdict bump_maxima(const ScenarioSummary& s) {
  const auto& q1 = s.result.ports[0].queue;
  const auto& q2 = s.result.ports[1].queue;
  const double b1 = q1.max_in(40.0, kBumpTime);
  const double b2 = q2.max_in(40.0, kBumpTime);
  const double a1 = q1.max_in(kBumpTime, kBumpTime + 10.0);
  const double a2 = q2.max_in(kBumpTime, kBumpTime + 10.0);
  return {"maxima " + fmt(b1, 0) + "/" + fmt(b2, 0) + " -> " + fmt(a1, 0) +
              "/" + fmt(a2, 0),
          b1 <= 23.0 && b2 <= 23.0 && a1 > 23.0 && a2 > 23.0};
}

// Run 0 holds 30/25 on 55-packet buffers, the Fig. 8 maxima. Run 1 is the
// Fig. 9 counterfactual on infinite buffers (its attractor needs the burst
// start a finite buffer would clip).
ClaimSet window_bump() {
  std::vector<Claim> claims = {
      {"ramp to steady state", "loss-free", [](const Runs& r) {
         const int ramp = bump_drops(r[0]).ramp;
         return Verdict{std::to_string(ramp) + " ramp drops", ramp == 0};
       }},
      {"Fig. 8 regime", "conn 1 loses 2, conn 2 loses 0", [](const Runs& r) {
         const BumpDrops d = bump_drops(r[0]);
         return Verdict{"conn 1 lost " + std::to_string(d.conn0) +
                            ", conn 2 lost " + std::to_string(d.conn1),
                        d.conn0 == 2 && d.conn1 == 0};
       }},
      {"ACK drops", "never dropped", [](const Runs& r) {
         const int acks = bump_drops(r[0]).acks;
         return Verdict{std::to_string(acks) + " ACK drops", acks == 0};
       }},
      {"Fig. 9 counterfactual", "both maxima rise past 23",
       [](const Runs& r) { return bump_maxima(r[1]); }},
  };
  return {
      "window_bump",
      {{fixed_pair(core::dumbbell_params(0.01, net::QueueLimit::of(55)), 1, 1,
                   kBumpTime + kBumpCycle + 10.0),
        ramp_and_bump},
       {fixed_pair(core::dumbbell_params(1.0, net::QueueLimit::infinite()), 30,
                   25, kBumpTime + 40.0),
        bump}},
      {block([](std::ostream& os, const Runs& r) {
         const BumpDrops d = bump_drops(r[0]);
         util::Table t({"configuration", "observed", "paper prediction"});
         t.add_row({"tau=0.01s, B=55 (Fig. 8 maxima)",
                    "conn 1 lost " + std::to_string(d.conn0) +
                        ", conn 2 lost " + std::to_string(d.conn1) + ", " +
                        std::to_string(d.acks) + " ACK drops, " +
                        std::to_string(d.ramp) + " ramp drops",
                    "conn 1 loses 2, conn 2 loses 0"});
         t.add_row({"tau=1s, B=inf (Fig. 9 counterfactual)",
                    bump_maxima(r[1]).measured,
                    "both maxima pass 23: each conn would lose 1 at B=23"});
         os << "§4.3.3 thought experiment: +1 to both fixed windows at "
               "steady state\n";
         t.print(os);
       }),
       table("§4.3.3 window bump", std::move(claims))}};
}

// ----------------------------------------------------------------- E21

ClaimSet red_wave() {
  const auto spec = [](net::QdiscKind kind, bool ecn) {
    core::RedWaveParams p;
    p.qdisc.kind = kind;
    p.qdisc.red.ecn = ecn;
    p.ecn = ecn;
    return core::red_wave_spec(p);
  };
  const auto wave = [](const ScenarioSummary& s) { return WaveMemo::of(s); };
  // Run `i`'s wave amplitude against drop-tail's.
  const auto damps = [wave](std::string what, std::size_t i) {
    return Claim{std::move(what), "amplitude < drop-tail",
                 [wave, i](const Runs& r) {
                   const double a = wave(r[i]).mean_amplitude;
                   const double dt = wave(r[0]).mean_amplitude;
                   return Verdict{fmt(a) + " vs " + fmt(dt) + " pkts", a < dt};
                 }};
  };
  std::vector<Claim> claims = {
      {"wave exists (drop-tail)", "adjacent hops correlate",
       [wave](const Runs& r) {
         const core::WaveStats dt = wave(r[0]);
         return Verdict{fmt(dt.mean_adjacent_correlation),
                        !dt.degenerate && dt.mean_adjacent_correlation > 0.3};
       }},
      {"wave direction", "travels with the data (lag > 0)",
       [wave](const Runs& r) {
         const double lag = wave(r[0]).mean_adjacent_lag_sec;
         return Verdict{fmt(lag) + " s", lag > 0.0};
       }},
      {"wave speed", "finite, set by the hop time", [wave](const Runs& r) {
         const double speed = wave(r[0]).wave_speed_hops_per_sec;
         return Verdict{fmt(speed) + " hops/s", speed > 0.0};
       }},
      {"correlation length", "finite decay across hops",
       [wave](const Runs& r) {
         const double xi = wave(r[0]).correlation_length_hops;
         return Verdict{fmt(xi) + " hops", xi > 0.0};
       }},
      damps("RED+ECN damps the wave", 2),
      damps("RED damps the wave", 1),
      {"utilization preserved", "RED+ECN >= drop-tail - 0.02",
       [wave](const Runs& r) {
         const double re = wave(r[2]).mean_utilization;
         const double dt = wave(r[0]).mean_utilization;
         return Verdict{fmt_pct(re) + " vs " + fmt_pct(dt), re >= dt - 0.02};
       }},
  };
  return {"red_wave",
          {{spec(net::QdiscKind::kDropTail, false)},
           {spec(net::QdiscKind::kRed, false)},
           {spec(net::QdiscKind::kRed, true)}},
          {block([wave](std::ostream& os, const Runs& r) {
             const char* labels[] = {"drop-tail", "red", "red-ecn"};
             for (std::size_t i = 0; i < r.size(); ++i) {
               const core::WaveStats w = wave(r[i]);
               os << labels[i] << ":\n"
                  << "  adjacent lag        " << w.mean_adjacent_lag_sec
                  << " s (corr " << w.mean_adjacent_correlation << ")\n"
                  << "  wave speed          " << w.wave_speed_hops_per_sec
                  << " hops/s\n"
                  << "  correlation length  " << w.correlation_length_hops
                  << " hops\n"
                  << "  queue amplitude     " << w.mean_amplitude
                  << " packets (stddev, detrended)\n"
                  << "  mean utilization    " << w.mean_utilization << "\n\n";
             }
           }),
           table("E21 congestion waves", std::move(claims))}};
}

}  // namespace

const std::vector<ClaimSet>& claim_sets() {
  static const std::vector<ClaimSet> sets = {
      fig2_oneway(),
      oneway_buffer_sweep(),
      fig3_ten_conns(),
      fig4_5_twoway_small_pipe(),
      fig6_7_twoway_large_pipe(),
      fig8_fixed_window(),
      fig9_fixed_window(),
      conjecture_zero_ack(),
      sync_mode_map(),
      delayed_ack(),
      four_switch(),
      pacing_ablation(),
      reno_twoway(),
      random_drop(),
      rtt_heterogeneity(),
      increment_ablation(),
      window_bump(),
      red_wave(),
  };
  return sets;
}

Runs run_set(const ClaimSet& set, std::size_t jobs) {
  std::vector<double> index(set.runs.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    index[i] = static_cast<double>(i);
  }
  // Each point writes only its own pre-sized slot.
  Runs runs(set.runs.size());
  const core::SweepRunner runner(core::SweepGrid({{"run", index}}),
                                 {.jobs = jobs, .seed = 1, .progress = false});
  runner.run([&](const core::SweepPoint& pt) {
    const Run& run = set.runs[pt.index];
    core::Scenario scenario(run.spec);
    if (run.setup) run.setup(*scenario.exp);
    runs[pt.index] = core::run_scenario(scenario);
    return core::SweepRow{};
  });
  return runs;
}

std::vector<core::Claim> evaluate(const ClaimSet& set, const Runs& runs) {
  const WaveMemo memo;
  std::vector<core::Claim> rows;
  for (const Section& section : set.sections) {
    for (core::Claim& row : evaluate(section, runs)) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

int print_set(std::ostream& os, const ClaimSet& set, const Runs& runs) {
  const WaveMemo memo;
  int failed = 0;
  for (const Section& section : set.sections) {
    if (section.print) {
      section.print(os, runs);
    } else {
      failed += core::print_claims(os, section.title, evaluate(section, runs));
    }
  }
  os << set.name << ": "
     << (failed == 0 ? "OK" : std::to_string(failed) + " claim(s) FAILED")
     << "\n";
  return failed;
}

}  // namespace tcpdyn::claims
