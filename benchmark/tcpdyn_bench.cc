// tcpdyn_bench — end-to-end benchmark of the tcpdyn simulator (README.md).
//
// One closed-loop client: every trial runs in a fresh child process (fork,
// then wait4 for its peak RSS), one at a time, round-robin across the
// selected workloads. The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A human-readable table goes to stderr. The exit code is
// nonzero if any trial failed.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "micros.h"
#include "trace.h"
#include "util/flags.h"
#include "workloads.h"

namespace tcpdyn::bench {
namespace {

struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;  // the end-to-end metric it should move
  const char* on;     // where it should move it
  const char* flat;   // where it should leave it flat
};

constexpr const char* kMeshes = "mesh_zoo mesh_zoo_shards4";
constexpr const char* kAll = "all";
constexpr const char* kNotSweep = "mesh_zoo mesh_zoo_shards4 incast_churn";
// A property of the simulated run: a speed-only change must leave it as is.
constexpr const char* kProperty = "none (fixed)";

// Mirrors BENCHMARK.json "per_layer". A metric whose layer a workload never
// reaches reads 0 there.
constexpr LayerDef kLayers[] = {
    {"sim.events_per_hop", "ratio", "hops_per_s", kAll, "-"},
    {"sim.sched_ns_16", "ns", "hops_per_s", "paper_sweep", "-"},
    {"sim.sched_ns_100k", "ns", "hops_per_s", "incast_churn", "paper_sweep"},
    {"net.switch_fwd_ns_2", "ns", "hops_per_s", kMeshes, "paper_sweep"},
    {"net.switch_fwd_ns_750", "ns", "hops_per_s", kMeshes, "paper_sweep"},
    {"net.qdisc_ns.droptail", "ns", "hops_per_s", kMeshes, "-"},
    {"net.qdisc_ns.red", "ns", "hops_per_s", kMeshes,
     "paper_sweep incast_churn"},
    {"net.qdisc_ns.drr", "ns", "hops_per_s", kMeshes,
     "paper_sweep incast_churn"},
    {"net.drop_frac", "ratio", kProperty, kAll, kAll},
    {"net.mark_frac", "ratio", kProperty, kAll, kAll},
    {"tcp.goodput_frac", "ratio", kProperty, kAll, kAll},
    {"tcp.timeouts", "count", kProperty, kAll, kAll},
    {"core.topology.parse_s", "s", "setup_s", kNotSweep, "paper_sweep"},
    {"core.topology.compile_s", "s", "setup_s", kMeshes, "paper_sweep"},
    {"core.topology.instantiate_s", "s", "setup_s", "incast_churn",
     "paper_sweep"},
    {"core.topology.route_entries", "count", "setup_s", kMeshes,
     "paper_sweep"},
    {"core.experiment.run_s", "s", "hops_per_s", kAll, "-"},
    {"core.experiment.allocs_per_hop", "ratio", "hops_per_s", kAll, "-"},
    {"core.experiment.setup_allocs_per_flow", "ratio", "setup_s",
     "incast_churn", "paper_sweep"},
    {"core.experiment.mem.bytes_per_flow", "B", "peak_rss_mb", "incast_churn",
     "paper_sweep"},
    {"core.audit.overhead_frac", "ratio", "hops_per_s", kAll, "-"},
    {"core.analysis.oscillation_period_s", "s", "wall_s", "paper_sweep",
     kNotSweep},
    {"core.analysis.classify_sync_s", "s", "wall_s", "paper_sweep", kNotSweep},
    {"core.analysis.clustering_s", "s", "wall_s", "paper_sweep", kNotSweep},
    {"core.analysis.rapid_fluctuations_s", "s", "wall_s", "paper_sweep",
     kNotSweep},
    {"core.analysis.analyze_epochs_s", "s", "wall_s", "paper_sweep",
     kNotSweep},
    {"core.analysis.ack_compression_s", "s", "wall_s", "paper_sweep",
     kNotSweep},
    {"core.analysis.summarize_flows_s", "s", "wall_s", "paper_sweep",
     kNotSweep},
    {"core.sweep.point_s_p50", "s", "wall_s", "paper_sweep", kNotSweep},
    {"core.sweep.point_s_p90", "s", "wall_s", "paper_sweep", kNotSweep},
    {"core.sweep.idle_frac", "ratio", "wall_s", "paper_sweep", kNotSweep},
    {"core.shard.plan_s", "s", "setup_s", "mesh_zoo_shards4",
     "mesh_zoo incast_churn"},
    {"core.shard.lookahead_us", "us", "hops_per_s", "mesh_zoo_shards4",
     "mesh_zoo incast_churn"},
    {"core.shard.cut_links", "count", "hops_per_s", "mesh_zoo_shards4",
     "mesh_zoo incast_churn"},
    {"core.shard.speedup", "x", "hops_per_s", "mesh_zoo_shards4", "mesh_zoo"},
    {"util.streaming_add_ns", "ns", "hops_per_s", "mesh_zoo incast_churn",
     "paper_sweep"},
    {"trace.overhead_frac", "ratio", "none (tracer)", kAll, kAll},
};

// ------------------------------------------------------------ child runs

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

std::string encode(const TrialResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "m wall_s " << r.wall_s << "\nm setup_s " << r.setup_s
     << "\nm run_s " << r.run_s << "\nm analysis_s " << r.analysis_s
     << "\nm run_wall_s " << r.run_wall_s << "\nm hops " << r.hops
     << "\nm events " << r.events << "\nm flows " << r.flows << "\nd "
     << r.digest << "\n";
  if (!r.check.empty()) os << "c " << one_line(r.check) << "\n";
  for (const auto& [name, v] : r.layer) os << "l " << name << " " << v << "\n";
  for (const SpanRecord& s : r.spans) {
    os << "s " << s.id << " " << s.parent << " " << s.start_ns << " "
       << s.end_ns << " " << s.cpu_ns << " " << s.name << "\n";
  }
  return os.str();
}

TrialResult decode(const std::string& text) {
  TrialResult r;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream f(line);
    std::string tag;
    f >> tag;
    if (tag == "m") {
      std::string name;
      double v = 0.0;
      f >> name >> v;
      if (name == "wall_s") r.wall_s = v;
      if (name == "setup_s") r.setup_s = v;
      if (name == "run_s") r.run_s = v;
      if (name == "analysis_s") r.analysis_s = v;
      if (name == "run_wall_s") r.run_wall_s = v;
      if (name == "hops") r.hops = static_cast<std::uint64_t>(v);
      if (name == "events") r.events = static_cast<std::uint64_t>(v);
      if (name == "flows") r.flows = static_cast<std::uint64_t>(v);
    } else if (tag == "d") {
      f >> r.digest;
    } else if (tag == "c") {
      r.check = line.substr(2);
    } else if (tag == "l") {
      std::string name;
      double v = 0.0;
      f >> name >> v;
      r.layer[name] = v;
    } else if (tag == "s") {
      SpanRecord s;
      f >> s.id >> s.parent >> s.start_ns >> s.end_ns >> s.cpu_ns >> s.name;
      r.spans.push_back(std::move(s));
    }
  }
  return r;
}

struct Outcome {
  TrialResult r;
  // clock_probe_s() on the trial's vCPUs just before and after it,
  // averaged.
  double clock_s = 0.0;
  // Rescales the trial's times to the reference clock:
  // kReferenceClockProbeS / clock_s.
  double scale = 1.0;
  double peak_rss_mb = 0.0;
  // Wall time from fork to exit. The trial's own times are CPU times; the
  // gap shows how much of the vCPUs the hypervisor took meanwhile.
  double elapsed_s = 0.0;
  std::string failure;  // empty: the trial ran and passed its checks
};

// The host is shared: a vCPU whose hyperthread sibling is busy runs this
// code two to three times slower, for seconds at a time (README.md). Ranks
// the vCPUs this process may use by cache_probe_s() and returns the fastest
// `want`, or all of them when `want` covers them all.
cpu_set_t quietest_cpus(std::size_t want) {
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof(all), &all);
  if (want >= static_cast<std::size_t>(CPU_COUNT(&all))) return all;
  std::vector<std::pair<double, int>> speed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      speed.emplace_back(cache_probe_s(), c);
    }
  }
  sched_setaffinity(0, sizeof(all), &all);
  if (want >= speed.size()) return all;  // some vCPU refused the probe
  std::sort(speed.begin(), speed.end());
  cpu_set_t out;
  CPU_ZERO(&out);
  for (std::size_t i = 0; i < want; ++i) CPU_SET(speed[i].second, &out);
  return out;
}

// Runs `body` in a forked child on the `cpus` quietest vCPUs and collects
// its result. This process probes the same vCPUs just before and after the
// child runs. A child that throws, crashes, or outlives `timeout_s` is a
// failed trial.
Outcome run_child(const std::function<TrialResult()>& body, double timeout_s,
                  std::size_t cpus) {
  Outcome o;
  int fds[2];
  if (pipe(fds) != 0) {
    o.failure = std::string("pipe: ") + std::strerror(errno);
    return o;
  }
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof(all), &all);
  const cpu_set_t pin = quietest_cpus(cpus);
  sched_setaffinity(0, sizeof(pin), &pin);  // the child inherits it
  const double clock_before = clock_probe_s();
  std::fflush(nullptr);
  const std::int64_t start_ns = now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    o.failure = std::string("fork: ") + std::strerror(errno);
    sched_setaffinity(0, sizeof(all), &all);
    close(fds[0]);
    close(fds[1]);
    return o;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive this process
    close(fds[0]);
    std::string text;
    int code = 0;
    try {
      text = encode(body());
    } catch (const std::exception& e) {
      text = "c exception: " + one_line(e.what()) + "\n";
      code = 1;
    }
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(2);
      off += static_cast<std::size_t>(n);
    }
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  bool timed_out = false;
  for (;;) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int rc = poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(
                                     left_ms, 60'000)));
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) continue;
    char buf[65536];
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  o.elapsed_s = static_cast<double>(now_ns() - start_ns) * 1e-9;
  o.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  o.clock_s = 0.5 * (clock_before + clock_probe_s());
  o.scale = kReferenceClockProbeS / o.clock_s;
  sched_setaffinity(0, sizeof(all), &all);
  o.r = decode(text);
  if (timed_out) {
    o.failure = "timed out after " + std::to_string(timeout_s) + " s";
  } else if (WIFSIGNALED(status)) {
    o.failure = "crashed with signal " + std::to_string(WTERMSIG(status));
  } else if (!o.r.check.empty()) {
    o.failure = o.r.check;
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    o.failure = "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return o;
}

// ------------------------------------------------------------ statistics

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string short_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// ------------------------------------------------------------- workloads

enum class Kind : std::uint8_t {
  kDefault,
  kAuditOff,
  kTraced,
  kOtherEngine,
  kMicros,
};

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kDefault: return "default";
    case Kind::kAuditOff: return "audit_off";
    case Kind::kTraced: return "traced";
    case Kind::kOtherEngine: return "other_engine";
    case Kind::kMicros: return "micros";
  }
  return "?";
}

struct Trial {
  Kind kind;
  Outcome o;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  // Diagnostics across the run's trials; n = 0 for derived metrics.
  double median = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
};

struct Run {
  const WorkloadInfo* w;
  Inputs in;
  std::vector<Trial> trials;
  std::vector<Metric> metrics;
  std::string digest;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::vector<const Outcome*> ok(Kind kind) const {
    std::vector<const Outcome*> out;
    for (const Trial& t : trials) {
      if (t.kind == kind && t.o.failure.empty()) out.push_back(&t.o);
    }
    return out;
  }
  // A time field of every passing trial of `kind`, at the reference clock.
  std::vector<double> times(Kind kind, double TrialResult::*field) const {
    std::vector<double> out;
    for (const Outcome* o : ok(kind)) out.push_back(o->r.*field * o->scale);
    return out;
  }
};

Workload other_engine(Workload w) {
  return w == Workload::kMeshZoo ? Workload::kMeshZooShards4
                                 : Workload::kMeshZoo;
}

bool is_mesh(Workload w) {
  return w == Workload::kMeshZoo || w == Workload::kMeshZooShards4;
}

void run_one(Run& run, Kind kind, Workload w, const TrialOptions& opt) {
  // A trial that outlives 10x its workload's median has failed; until one
  // has passed, only a hang is cut short.
  std::vector<double> walls;
  for (const Outcome* o : run.ok(Kind::kDefault)) walls.push_back(o->r.wall_s);
  const double timeout_s =
      walls.empty() ? 60.0 : 10.0 * quantile(walls, 0.5) + 5.0;
  const Inputs& in = run.in;
  run.trials.push_back(
      {kind, run_child([&] { return run_trial(w, in, opt); }, timeout_s,
                       info(w).pinned_cpus)});
}

// Failure rules that need the whole run: a digest differing from the run's
// first trial of the same kind, and a trial past 10x the median.
void settle(Run& run) {
  std::map<Kind, std::uint64_t> first;
  std::map<Kind, double> median;
  for (const Kind k : {Kind::kDefault, Kind::kAuditOff, Kind::kTraced,
                       Kind::kOtherEngine, Kind::kMicros}) {
    median[k] = quantile(run.times(k, &TrialResult::wall_s), 0.5);
  }
  for (Trial& t : run.trials) {
    if (!t.o.failure.empty()) continue;
    // The traced trial makes the same library calls as the default ones, so
    // its digest must match theirs.
    const Kind group = t.kind == Kind::kTraced ? Kind::kDefault : t.kind;
    const auto [it, fresh] = first.emplace(group, t.o.r.digest);
    if (!fresh && it->second != t.o.r.digest) {
      t.o.failure = "digest differs from the run's first trial";
    } else if (t.o.r.wall_s * t.o.scale > 10.0 * median[t.kind]) {
      t.o.failure = "ran past 10x the median trial";
    }
  }
  if (auto it = first.find(Kind::kDefault); it != first.end()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(it->second));
    run.digest = buf;
  }
  run.attempted = run.trials.size();
  run.failed = 0;
  for (const Trial& t : run.trials) run.failed += !t.o.failure.empty();
}

Metric timing(const std::string& name, const std::vector<double>& v,
              double value) {
  return {name, "s", value, quantile(v, 0.5), quantile(v, 0.9), v.size()};
}

void end_to_end(Run& run) {
  const std::vector<double> wall = run.times(Kind::kDefault,
                                             &TrialResult::wall_s);
  const std::vector<double> setup = run.times(Kind::kDefault,
                                              &TrialResult::setup_s);
  const std::vector<double> run_s = run.times(Kind::kDefault,
                                              &TrialResult::run_s);
  std::vector<double> rss;
  for (const Outcome* o : run.ok(Kind::kDefault)) rss.push_back(o->peak_rss_mb);
  const std::vector<const Outcome*> ok = run.ok(Kind::kDefault);
  const double hops = ok.empty() ? 0.0 : static_cast<double>(ok[0]->r.hops);
  const double fastest = min_of(run_s);
  std::vector<double> rate;
  for (const double s : run_s) rate.push_back(s > 0.0 ? hops / s : 0.0);
  run.metrics.push_back(timing("wall_s", wall, min_of(wall)));
  // Every trial sets up once; setup_s is their median, so that work moved
  // into setup shows at its typical cost.
  run.metrics.push_back(timing("setup_s", setup, quantile(setup, 0.5)));
  run.metrics.push_back({"hops_per_s", "1/s",
                         fastest > 0.0 ? hops / fastest : 0.0,
                         quantile(rate, 0.5), quantile(rate, 0.1),
                         rate.size()});
  run.metrics.push_back({"peak_rss_mb", "MiB", quantile(rss, 0.5),
                         quantile(rss, 0.5), quantile(rss, 0.9), rss.size()});
}

const LayerDef* find_layer(const std::string& name) {
  for (const LayerDef& d : kLayers) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

// The metrics of `o`'s layer map, times rescaled to the reference clock.
std::map<std::string, double> rescaled_layer(const Outcome& o) {
  std::map<std::string, double> m;
  for (const auto& [name, v] : o.r.layer) {
    const LayerDef* d = find_layer(name);
    const bool time = d != nullptr && (std::string_view(d->unit) == "s" ||
                                       std::string_view(d->unit) == "ns");
    m[name] = time ? v * o.scale : v;
  }
  return m;
}

void per_layer(Run& run, const std::map<std::string, double>& micros) {
  std::map<std::string, double> m = micros;
  const std::vector<const Outcome*> traced = run.ok(Kind::kTraced);
  if (!traced.empty()) {
    for (const auto& [k, v] : rescaled_layer(*traced[0])) m[k] = v;
  }
  const double run_default =
      min_of(run.times(Kind::kDefault, &TrialResult::run_s));
  const double run_off =
      min_of(run.times(Kind::kAuditOff, &TrialResult::run_s));
  const double wall_default =
      min_of(run.times(Kind::kDefault, &TrialResult::wall_s));
  if (run_off > 0.0) m["core.audit.overhead_frac"] = run_default / run_off - 1;
  if (!traced.empty() && wall_default > 0.0) {
    m["trace.overhead_frac"] =
        traced[0]->r.wall_s * traced[0]->scale / wall_default - 1.0;
  }
  // Wall clock: a CPU clock cannot see shards waiting at a barrier.
  const double wall_run =
      min_of(run.times(Kind::kDefault, &TrialResult::run_wall_s));
  const double other =
      min_of(run.times(Kind::kOtherEngine, &TrialResult::run_wall_s));
  if (other > 0.0 && wall_run > 0.0) {
    m["core.shard.speedup"] = run.w->id == Workload::kMeshZoo
                                  ? wall_run / other
                                  : other / wall_run;
  }
  for (const LayerDef& d : kLayers) {
    const auto it = m.find(d.name);
    run.metrics.push_back({d.name, d.unit, it == m.end() ? 0.0 : it->second,
                           0.0, 0.0, 0});
  }
}

// --------------------------------------------------------------- reports

void print_table(const Run& run, bool traced) {
  std::fprintf(stderr, "\n== %s  (%zu trials, %zu failed, fail_frac %.3g, "
               "digest %s)\n",
               run.w->name, run.attempted, run.failed,
               run.attempted ? static_cast<double>(run.failed) /
                                   static_cast<double>(run.attempted)
                             : 0.0,
               run.digest.c_str());
  for (const Trial& t : run.trials) {
    if (!t.o.failure.empty()) {
      std::fprintf(stderr, "   FAILED %s trial: %s\n", to_string(t.kind),
                   t.o.failure.c_str());
    }
  }
  if (!traced) {
    std::fprintf(stderr, "   %-12s %14s %-5s %14s %14s %6s\n", "metric",
                 "value", "unit", "median", "p90", "n");
    for (const Metric& m : run.metrics) {
      std::fprintf(stderr, "   %-12s %14s %-5s %14s %14s %6zu\n",
                   m.name.c_str(), short_num(m.value).c_str(), m.unit.c_str(),
                   short_num(m.median).c_str(), short_num(m.p90).c_str(),
                   m.n);
    }
    return;
  }
  std::fprintf(stderr, "   %-38s %12s %-6s %-12s %-28s %s\n", "metric",
               "value", "unit", "moves", "on", "flat on");
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const LayerDef& d = kLayers[i];
    std::fprintf(stderr, "   %-38s %12s %-6s %-12s %-28s %s\n", d.name,
                 short_num(run.metrics[i].value).c_str(), d.unit, d.moves,
                 d.on, d.flat);
  }
  const std::vector<const Outcome*> traced_trials = run.ok(Kind::kTraced);
  if (traced_trials.empty()) return;
  const std::vector<SpanRecord>& spans = traced_trials[0]->r.spans;
  const double scale = traced_trials[0]->scale;
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [total, count] = by_name[spans[i].name];
    total += self[i] * scale;
    ++count;
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, v] : by_name) order.emplace_back(v.first, name);
  std::sort(order.rbegin(), order.rend());
  std::fprintf(stderr,
               "   self time by span (traced trial, reference clock):\n");
  for (const auto& [secs, name] : order) {
    std::fprintf(stderr, "     %-38s %10.4f s  x%zu\n", name.c_str(), secs,
                 by_name[name].second);
  }
}

void write_report(std::ostream& os, const std::vector<Run>& runs,
                  std::uint64_t seed, bool traced, bool quick) {
  os << "{\"schema\": \"tcpdyn-benchmark-v1\", \"seed\": " << seed
     << ", \"trace\": " << (traced ? 1 : 0)
     << ", \"quick\": " << (quick ? "true" : "false") << ", \"workloads\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    os << (i ? ",\n" : "\n") << " {\"name\": \"" << run.w->name
       << "\", \"digest\": \"" << run.digest
       << "\", \"attempted\": " << run.attempted
       << ", \"failed\": " << run.failed << ",\n  \"metrics\": {";
    for (std::size_t k = 0; k < run.metrics.size(); ++k) {
      const Metric& m = run.metrics[k];
      os << (k ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"";
      if (m.n > 0) {
        os << ", \"median\": " << fmt(m.median) << ", \"p90\": "
           << fmt(m.p90) << ", \"n\": " << m.n;
      }
      os << "}";
    }
    os << "},\n  \"trials\": [";
    for (std::size_t k = 0; k < run.trials.size(); ++k) {
      const Trial& t = run.trials[k];
      os << (k ? ",\n   " : "\n   ") << "{\"trial\": " << k
         << ", \"kind\": \"" << to_string(t.kind)
         << "\", \"clock_scale\": " << fmt(t.o.scale)
         << ", \"clock_s\": " << fmt(t.o.clock_s)
         << ", \"wall_s\": " << fmt(t.o.r.wall_s)
         << ", \"setup_s\": " << fmt(t.o.r.setup_s)
         << ", \"run_s\": " << fmt(t.o.r.run_s)
         << ", \"analysis_s\": " << fmt(t.o.r.analysis_s)
         << ", \"hops\": " << t.o.r.hops << ", \"events\": " << t.o.r.events
         << ", \"peak_rss_mb\": " << fmt(t.o.peak_rss_mb)
         << ", \"elapsed_s\": " << fmt(t.o.elapsed_s)
         << ", \"failure\": \"" << t.o.failure << "\"}";
    }
    os << "],\n  \"spans\": [";
    bool first = true;
    for (std::size_t k = 0; k < run.trials.size(); ++k) {
      const std::vector<SpanRecord>& spans = run.trials[k].o.r.spans;
      const std::vector<double> self = self_seconds(spans);
      for (std::size_t j = 0; j < spans.size(); ++j) {
        const SpanRecord& s = spans[j];
        os << (first ? "\n   " : ",\n   ") << "{\"name\": \"" << s.name
           << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
           << ", \"cpu_s\": " << fmt(static_cast<double>(s.cpu_ns) * 1e-9)
           << ", \"self_s\": " << fmt(self[j]) << ", \"workload\": \""
           << run.w->name << "\", \"trial\": " << k << "}";
        first = false;
      }
    }
    os << "]}";
  }
  os << "\n]}\n";
}

// The result line: end-to-end (or per-layer) metrics of one workload, or
// of all of them keyed "<workload>.<metric>".
void print_result_line(const std::vector<Run>& runs) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const Run& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
    for (const Metric& m : run.metrics) {
      const std::string key =
          runs.size() == 1 ? m.name : std::string(run.w->name) + "." + m.name;
      metrics << (first ? "" : ", ") << "\"" << key << "\": {\"value\": "
              << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
}

int bench_main(int argc, char** argv) {
  util::Flags flags;
  flags
      .flag("workload", "NAME",
            "paper_sweep|mesh_zoo|mesh_zoo_shards4|incast_churn; default: "
            "all four, round-robin",
            "")
      .flag("seed", "N", "seed every input is generated from", 1)
      // Part of the benchmark command line that BENCHMARK.json describes
      // (its run_seconds). The trial counts are fixed per workload instead,
      // so the value changes nothing.
      .flag("seconds", "S", "accepted and unused; trial counts are fixed",
            25.0)
      .flag("trace", "0|1",
            "1: traced run that reports the per-layer metrics", 0)
      .flag("out", "FILE",
            "also write the full report (trials, metrics, spans) as JSON", "")
      .flag("quick", "one trial per workload on ~10x smaller inputs", false);
  try {
    flags.parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "tcpdyn_bench: " << e.what() << "\n"
              << flags.usage("tcpdyn_bench");
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("tcpdyn_bench");
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::int64_t trace = flags.get_int("trace");
  const bool quick = flags.get_bool("quick");
  const bool traced = trace == 1;
  if (trace != 0 && trace != 1) {
    std::cerr << "tcpdyn_bench: need --trace 0 or 1\n";
    return 2;
  }

  std::vector<Run> runs;
  const std::string only = flags.get("workload");
  for (const WorkloadInfo& w : all_workloads()) {
    if (only.empty() || only == w.name) {
      runs.push_back({&w, make_inputs(w.id, seed, quick), {}, {}, "", 0, 0});
    }
  }
  if (runs.empty()) {
    std::cerr << "tcpdyn_bench: unknown --workload '" << only << "'\n";
    return 2;
  }

  std::map<std::string, double> micros;
  if (!traced) {
    std::size_t rounds = 0;
    for (const Run& run : runs) rounds = std::max(rounds, run.w->trials);
    if (quick) rounds = 1;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (Run& run : runs) {
        if (r < run.w->trials) run_one(run, Kind::kDefault, run.w->id, {});
      }
    }
  } else {
    // Untraced pairs (default audit, audit off; order alternating) for the
    // overhead ratios, then one traced trial, then for a mesh workload one
    // trial of the other engine on the same input.
    for (Run& run : runs) {
      const std::size_t pairs = quick ? 1 : 2;
      TrialOptions off;
      off.audit = core::AuditMode::kOff;
      for (std::size_t p = 0; p < pairs; ++p) {
        if (p % 2 == 0) run_one(run, Kind::kDefault, run.w->id, {});
        run_one(run, Kind::kAuditOff, run.w->id, off);
        if (p % 2 == 1) run_one(run, Kind::kDefault, run.w->id, {});
      }
      TrialOptions on;
      on.traced = true;
      run_one(run, Kind::kTraced, run.w->id, on);
      if (is_mesh(run.w->id)) {
        run_one(run, Kind::kOtherEngine, other_engine(run.w->id), {});
      }
    }
    const std::string mesh = make_inputs(Workload::kMeshZoo, seed, quick).topo;
    Outcome o = run_child(
        [&] {
          TrialResult r;
          r.layer = run_micros(mesh, quick);
          return r;
        },
        120.0, 1);
    micros = rescaled_layer(o);
    runs.front().trials.push_back({Kind::kMicros, std::move(o)});
  }

  for (Run& run : runs) {
    settle(run);
    if (traced) {
      per_layer(run, micros);
    } else {
      end_to_end(run);
    }
    print_table(run, traced);
  }
  const std::string out = flags.get("out");
  if (!out.empty()) {
    std::ofstream os(out, std::ios::binary);
    if (os) write_report(os, runs, seed, traced, quick);
    if (!os) std::cerr << "tcpdyn_bench: cannot write --out '" << out << "'\n";
  }
  print_result_line(runs);
  for (const Run& run : runs) {
    if (run.failed > 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tcpdyn::bench

int main(int argc, char** argv) { return tcpdyn::bench::bench_main(argc, argv); }
