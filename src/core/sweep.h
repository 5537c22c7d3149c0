// Parallel sweep engine for scenario grids. The paper's headline results are
// parameter *maps* — sync-mode regions over (tau, buffer), buffer sweeps,
// fixed-window grids — and every map point is an independent simulation, so
// the engine fans a cartesian grid out over a util::ThreadPool and collects
// one result row per point.
//
// Determinism guarantee: a sweep's output depends only on (grid, sweep seed,
// the point function) — never on the worker count or scheduling. Each point
// gets its own RNG seed, util::mix_seed(sweep seed, point index), and rows
// land in a pre-sized table slot addressed by point index, so `--jobs 1` and
// `--jobs N` produce byte-identical JSON/CSV. CI diffs the two on every
// push.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/scenarios.h"
#include "util/value.h"

namespace tcpdyn::core {

// ------------------------------------------------------------------- grid

// One axis of a sweep grid: a named parameter and the values it takes.
struct SweepAxis {
  std::string name;
  std::vector<double> values;
};

// Parses one axis spec. Accepted forms:
//   name=v                  single value
//   name=v1;v2;v3           explicit list
//   name=lo:hi:step         linear, inclusive of hi (step > 0)
//   name=lo:hi:logN         N points log-spaced from lo to hi (lo, hi > 0)
// Every value must keep `kind`'s rule (util/value.h), or the error names
// "grid axis 'name'". Throws std::invalid_argument on malformed specs.
SweepAxis parse_axis(const std::string& spec,
                     util::ValueKind kind = util::ValueKind::kNumber);

// Parses a comma-separated list of axis specs, e.g.
// "tau=0.01:1:log10,buffer=10:80:10"; `kind_of` gives each axis's kind by
// name (any number when unset) and may throw to refuse the name.
std::vector<SweepAxis> parse_grid(
    const std::string& spec,
    const std::function<util::ValueKind(const std::string&)>& kind_of = {});

// A single expanded grid point: parameter values in axis order plus the
// deterministic per-point RNG seed.
struct SweepPoint {
  std::size_t index = 0;
  std::vector<std::pair<std::string, double>> params;
  std::uint64_t seed = 0;

  // Value of a named parameter; throws std::out_of_range if absent.
  double value(const std::string& name) const;
  double value_or(const std::string& name, double fallback) const;
  bool has(const std::string& name) const;
};

// The cartesian product of a set of axes. Points are indexed row-major with
// the LAST axis varying fastest, so "tau=...,buffer=..." enumerates all
// buffers for the first tau, then all buffers for the second tau, etc.
class SweepGrid {
 public:
  SweepGrid() = default;
  explicit SweepGrid(std::vector<SweepAxis> axes);

  std::size_t size() const { return size_; }
  const std::vector<SweepAxis>& axes() const { return axes_; }

  // Expands point `index`, deriving its seed from `sweep_seed`.
  SweepPoint point(std::size_t index, std::uint64_t sweep_seed) const;

 private:
  std::vector<SweepAxis> axes_;
  std::size_t size_ = 1;
};

// ------------------------------------------------------------------ table

// A typed result cell. Doubles are emitted with round-trip precision;
// int64s without a decimal point; strings CSV/JSON-escaped.
using SweepValue = std::variant<double, std::int64_t, std::string>;

// One result row: ordered (column, value) pairs for one grid point.
struct SweepRow {
  std::size_t index = 0;
  std::vector<std::pair<std::string, SweepValue>> cells;

  void add(const std::string& column, SweepValue value);
  // nullptr if the column is absent.
  const SweepValue* find(const std::string& column) const;
  double number(const std::string& column) const;  // throws if absent/string
  std::string text(const std::string& column) const;  // throws if absent
};

// Aggregated sweep results, ordered by point index regardless of which
// worker finished when. Thread safety comes from structure, not locks:
// SweepRunner pre-sizes the row vector and each worker writes only its own
// point's slot.
class SweepTable {
 public:
  SweepTable() = default;
  explicit SweepTable(std::vector<SweepRow> rows) : rows_(std::move(rows)) {}

  const std::vector<SweepRow>& rows() const { return rows_; }
  // Union of row columns, in first-occurrence order.
  std::vector<std::string> columns() const;

  // CSV: header row, then one line per point (missing cells empty).
  void write_csv(std::ostream& os) const;
  // JSON: {"points": [{"index": 0, "<col>": <value>, ...}, ...]}.
  // Deterministic byte-for-byte for a given table.
  void write_json(std::ostream& os) const;
  std::string to_csv() const;
  std::string to_json() const;

 private:
  std::vector<SweepRow> rows_;
};

// ----------------------------------------------------------------- runner

struct SweepOptions {
  std::size_t jobs = 1;      // worker threads; 0 = ThreadPool::default_jobs()
  std::uint64_t seed = 1;    // master sweep seed, mixed into each point
  bool progress = false;     // log progress + ETA at kInfo via util::logging
};

// Computes one result row for one grid point. Runs on a worker thread; must
// not touch shared mutable state (each call owns its simulation).
using SweepFn = std::function<SweepRow(const SweepPoint&)>;

class SweepRunner {
 public:
  SweepRunner(SweepGrid grid, SweepOptions options);

  const SweepGrid& grid() const { return grid_; }

  // Runs `fn` on every grid point across the worker pool and returns the
  // aggregated table (rows in point-index order). If any point throws, the
  // remaining points still run, then the first exception (by point index)
  // propagates.
  SweepTable run(const SweepFn& fn) const;

 private:
  SweepGrid grid_;
  SweepOptions options_;
};

// ---------------------------------------------------------------- helpers

// The standard summary row benches and the CLI share: the point's
// parameters followed by every scalar ScenarioSummary observable
// (utilization, sync modes + correlations, epoch stats, clustering,
// fluctuation, ACK-compression aggregates, oscillation period).
SweepRow summary_row(const SweepPoint& point, const ScenarioSummary& summary);

}  // namespace tcpdyn::core
