#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/value.h"

namespace tcpdyn::core {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string::size_type from = 0;
  for (;;) {
    const auto at = s.find(sep, from);
    if (at == std::string::npos) {
      out.push_back(s.substr(from));
      return out;
    }
    out.push_back(s.substr(from, at - from));
    from = at + 1;
  }
}

// Shortest decimal representation that round-trips: the output must be
// byte-stable for a given value, and "0.25" beats "0.25000000000000000".
std::string fmt_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan literals; the CSV reader side treats these as text.
    return std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf");
  }
  char buf[32];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (util::number(buf) == v) break;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string value_to_csv(const SweepValue& v) {
  if (const auto* d = std::get_if<double>(&v)) return fmt_double(*d);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  return util::csv_escape(std::get<std::string>(v));
}

std::string value_to_json(const SweepValue& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    const std::string s = fmt_double(*d);
    // JSON numbers cannot be inf/nan; emit those as strings.
    return std::isfinite(*d) ? s : '"' + s + '"';
  }
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  return '"' + json_escape(std::get<std::string>(v)) + '"';
}

// Largest grid a sweep expands, in points.
constexpr std::size_t kMaxGridPoints = std::size_t{1} << 30;

}  // namespace

// --------------------------------------------------------------- parsing

SweepAxis parse_axis(const std::string& spec, util::ValueKind kind) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    throw std::invalid_argument("sweep: axis spec must be name=values: '" +
                                spec + "'");
  }
  SweepAxis axis;
  axis.name = spec.substr(0, eq);
  const std::string rest = spec.substr(eq + 1);
  const std::string what = "grid axis '" + axis.name + "'";

  const std::vector<std::string> parts = split(rest, ':');
  if (rest.find(';') != std::string::npos || parts.size() == 1) {
    for (const std::string& field : split(rest, ';')) {
      axis.values.push_back(util::read(kind, field, what));
    }
    return axis;
  }
  if (parts.size() != 3) {
    throw std::invalid_argument(
        "sweep: range must be lo:hi:step or lo:hi:logN: '" + spec + "'");
  }
  const double lo = util::read(util::ValueKind::kNumber, parts[0], what);
  const double hi = util::read(util::ValueKind::kNumber, parts[1], what);
  // A value count is checked as a double before the cast: a count past the
  // grid limit would make the cast undefined or the loop exhaust memory.
  const auto too_many = [](double count) {
    return !(count < static_cast<double>(kMaxGridPoints));
  };
  if (parts[2].rfind("log", 0) == 0) {
    const std::optional<double> n_raw = util::number(parts[2].substr(3));
    if (!n_raw || *n_raw < 2.0 || too_many(*n_raw) ||
        std::trunc(*n_raw) != *n_raw) {
      throw std::invalid_argument(
          "sweep: logN needs integer 2 <= N < 2^30: '" + spec + "'");
    }
    const auto n = static_cast<std::size_t>(*n_raw);
    if (lo <= 0.0 || hi <= lo) {
      throw std::invalid_argument("sweep: log axis needs 0 < lo < hi: '" +
                                  spec + "'");
    }
    const double ratio = hi / lo;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      axis.values.push_back(
          lo * std::pow(ratio, static_cast<double>(i) /
                                   static_cast<double>(n - 1)));
    }
    axis.values.push_back(hi);  // exact endpoint, no pow() rounding
  } else {
    const double step = util::read(util::ValueKind::kNumber, parts[2], what);
    if (!(step > 0.0) || hi < lo) {
      throw std::invalid_argument(
          "sweep: linear axis needs step > 0 and hi >= lo: '" + spec + "'");
    }
    const double steps = (hi - lo) / step + 1e-9;
    if (too_many(steps + 1.0)) {
      throw std::invalid_argument("sweep: axis has more than 2^30 values: '" +
                                  spec + "'");
    }
    const auto n = static_cast<std::size_t>(steps) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      axis.values.push_back(lo + static_cast<double>(i) * step);
    }
  }
  // A range's values have no text of their own; quote each as read back.
  for (const double v : axis.values) {
    if (!util::fits(kind, v)) throw util::rejection(kind, what, fmt_double(v));
  }
  return axis;
}

std::vector<SweepAxis> parse_grid(
    const std::string& spec,
    const std::function<util::ValueKind(const std::string&)>& kind_of) {
  if (spec.empty()) {
    throw std::invalid_argument("sweep: empty grid spec");
  }
  std::vector<SweepAxis> axes;
  for (const std::string& part : split(spec, ',')) {
    const auto eq = part.find('=');
    const bool named = kind_of && eq != std::string::npos && eq > 0;
    SweepAxis axis = parse_axis(
        part, named ? kind_of(part.substr(0, eq)) : util::ValueKind::kNumber);
    for (const SweepAxis& existing : axes) {
      if (existing.name == axis.name) {
        throw std::invalid_argument("sweep: duplicate axis '" + axis.name +
                                    "'");
      }
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

// ------------------------------------------------------------------ grid

SweepGrid::SweepGrid(std::vector<SweepAxis> axes) : axes_(std::move(axes)) {
  for (const SweepAxis& axis : axes_) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep: axis '" + axis.name +
                                  "' has no values");
    }
    if (axis.values.size() > kMaxGridPoints / size_) {
      throw std::invalid_argument("sweep: grid too large");
    }
    size_ *= axis.values.size();
  }
}

SweepPoint SweepGrid::point(std::size_t index, std::uint64_t sweep_seed) const {
  if (index >= size_) {
    throw std::out_of_range("sweep: point index out of range");
  }
  SweepPoint p;
  p.index = index;
  p.seed = util::mix_seed(sweep_seed, index);
  p.params.resize(axes_.size());
  // Row-major, last axis fastest.
  std::size_t rest = index;
  for (std::size_t i = axes_.size(); i-- > 0;) {
    const SweepAxis& axis = axes_[i];
    p.params[i] = {axis.name, axis.values[rest % axis.values.size()]};
    rest /= axis.values.size();
  }
  return p;
}

double SweepPoint::value(const std::string& name) const {
  for (const auto& [key, v] : params) {
    if (key == name) return v;
  }
  throw std::out_of_range("sweep: point has no parameter '" + name + "'");
}

double SweepPoint::value_or(const std::string& name, double fallback) const {
  for (const auto& [key, v] : params) {
    if (key == name) return v;
  }
  return fallback;
}

bool SweepPoint::has(const std::string& name) const {
  for (const auto& [key, v] : params) {
    (void)v;
    if (key == name) return true;
  }
  return false;
}

// ----------------------------------------------------------------- table

void SweepRow::add(const std::string& column, SweepValue value) {
  cells.emplace_back(column, std::move(value));
}

const SweepValue* SweepRow::find(const std::string& column) const {
  for (const auto& [key, v] : cells) {
    if (key == column) return &v;
  }
  return nullptr;
}

double SweepRow::number(const std::string& column) const {
  const SweepValue* v = find(column);
  if (v == nullptr) {
    throw std::out_of_range("sweep: row has no column '" + column + "'");
  }
  if (const auto* d = std::get_if<double>(v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*i);
  }
  throw std::invalid_argument("sweep: column '" + column + "' is text");
}

std::string SweepRow::text(const std::string& column) const {
  const SweepValue* v = find(column);
  if (v == nullptr) {
    throw std::out_of_range("sweep: row has no column '" + column + "'");
  }
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return value_to_csv(*v);
}

std::vector<std::string> SweepTable::columns() const {
  std::vector<std::string> out;
  for (const SweepRow& row : rows_) {
    for (const auto& [key, v] : row.cells) {
      (void)v;
      if (std::find(out.begin(), out.end(), key) == out.end()) {
        out.push_back(key);
      }
    }
  }
  return out;
}

void SweepTable::write_csv(std::ostream& os) const {
  const std::vector<std::string> cols = columns();
  os << "index";
  for (const std::string& c : cols) os << ',' << util::csv_escape(c);
  os << '\n';
  for (const SweepRow& row : rows_) {
    os << row.index;
    for (const std::string& c : cols) {
      os << ',';
      if (const SweepValue* v = row.find(c)) os << value_to_csv(*v);
    }
    os << '\n';
  }
}

void SweepTable::write_json(std::ostream& os) const {
  os << "{\"points\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const SweepRow& row = rows_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"index\": " << row.index;
    for (const auto& [key, v] : row.cells) {
      os << ", \"" << json_escape(key) << "\": " << value_to_json(v);
    }
    os << '}';
  }
  os << "\n]}\n";
}

std::string SweepTable::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

std::string SweepTable::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

// ---------------------------------------------------------------- runner

SweepRunner::SweepRunner(SweepGrid grid, SweepOptions options)
    : grid_(std::move(grid)), options_(options) {
  if (options_.jobs == 0) {
    options_.jobs = util::ThreadPool::default_jobs();
  }
}

SweepTable SweepRunner::run(const SweepFn& fn) const {
  const std::size_t n = grid_.size();
  // Each worker writes only rows[point.index]; no slot is touched twice, so
  // the table needs no lock and row order never depends on scheduling.
  std::vector<SweepRow> rows(n);
  std::atomic<std::size_t> done{0};
  const auto started = std::chrono::steady_clock::now();

  std::vector<std::future<void>> pending;
  pending.reserve(n);
  {
    util::ThreadPool pool(std::min(options_.jobs, std::max<std::size_t>(n, 1)));
    for (std::size_t i = 0; i < n; ++i) {
      pending.push_back(pool.submit([this, &fn, &rows, &done, started, i, n] {
        SweepPoint point = grid_.point(i, options_.seed);
        SweepRow row = fn(point);
        row.index = i;
        rows[i] = std::move(row);
        const std::size_t finished = done.fetch_add(1) + 1;
        if (options_.progress) {
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            started)
                  .count();
          char buf[128];
          // ETA extrapolates from completed points; with none completed or
          // no measurable elapsed time (sub-tick first point) there is
          // nothing to extrapolate from — print a placeholder instead of
          // the inf/nan a raw division would produce.
          if (finished > 0 && elapsed > 0.0) {
            const double eta = elapsed / static_cast<double>(finished) *
                               static_cast<double>(n - finished);
            std::snprintf(buf, sizeof(buf),
                          "sweep: %zu/%zu points (%.0f%%), elapsed %.1fs, "
                          "eta %.1fs",
                          finished, n,
                          100.0 * static_cast<double>(finished) /
                              static_cast<double>(n),
                          elapsed, eta);
          } else {
            std::snprintf(buf, sizeof(buf),
                          "sweep: %zu/%zu points (%.0f%%), elapsed %.1fs, "
                          "eta --",
                          finished, n,
                          100.0 * static_cast<double>(finished) /
                              static_cast<double>(n),
                          elapsed);
          }
          util::log_line(util::LogLevel::kInfo, buf);
        }
      }));
    }
  }  // pool destructor drains the queue and joins the workers

  // Final summary. Emitted after the pool has joined, so it cannot
  // interleave with worker progress lines, and as a single log_line call,
  // so concurrent stderr writers elsewhere cannot tear it.
  if (options_.progress) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "sweep: done, %zu points in %.1fs (%.2fs/point)", n, elapsed,
                  n > 0 ? elapsed / static_cast<double>(n) : 0.0);
    util::log_line(util::LogLevel::kInfo, buf);
  }

  // All points ran; surface the first failure (by point index) if any.
  std::exception_ptr first_error;
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return SweepTable(std::move(rows));
}

// --------------------------------------------------------------- helpers

SweepRow summary_row(const SweepPoint& point, const ScenarioSummary& s) {
  SweepRow row;
  row.index = point.index;
  for (const auto& [name, v] : point.params) {
    row.add(name, v);
  }
  // As a string: the seed is a full uint64 and half of those overflow the
  // int64 cell type (and IEEE doubles past 2^53).
  row.add("seed", std::to_string(point.seed));
  row.add("util_fwd", s.util_fwd);
  row.add("util_rev", s.util_rev);
  row.add("queue_sync_mode", std::string(to_string(s.queue_sync.mode)));
  row.add("queue_sync_rho", s.queue_sync.correlation);
  row.add("queue_sync_degenerate",
          static_cast<std::int64_t>(s.queue_sync.degenerate ? 1 : 0));
  row.add("cwnd_sync_mode", std::string(to_string(s.cwnd_sync.mode)));
  row.add("cwnd_sync_rho", s.cwnd_sync.correlation);
  row.add("cwnd_sync_degenerate",
          static_cast<std::int64_t>(s.cwnd_sync.degenerate ? 1 : 0));
  row.add("epochs", static_cast<std::int64_t>(s.epochs.epochs.size()));
  row.add("drops_per_epoch", s.epochs.mean_drops_per_epoch);
  row.add("epoch_interval", s.epochs.mean_interval);
  row.add("multi_loser_fraction", s.epochs.multi_loser_fraction);
  row.add("single_loser_fraction", s.epochs.single_loser_fraction);
  row.add("loser_alternation_fraction", s.epochs.loser_alternation_fraction);
  row.add("data_drop_fraction", s.epochs.data_drop_fraction);
  row.add("clustering_fwd_mean_run", s.clustering_fwd.mean_run_length);
  row.add("clustering_rev_mean_run", s.clustering_rev.mean_run_length);
  row.add("fluct_fwd_max_burst_rise", s.fluct_fwd.max_burst_rise);
  row.add("fluct_rev_max_burst_rise", s.fluct_rev.max_burst_rise);
  double compressed_max = 0.0;
  double min_gap = 0.0;
  bool any_ack = false;
  for (const auto& [conn, ack] : s.ack) {
    (void)conn;
    compressed_max = std::max(compressed_max, ack.compressed_fraction);
    min_gap = any_ack ? std::min(min_gap, ack.min_gap) : ack.min_gap;
    any_ack = true;
  }
  row.add("ack_compressed_fraction_max", compressed_max);
  row.add("ack_min_gap", min_gap);
  if (s.period_fwd) {
    row.add("period_fwd", *s.period_fwd);
  }
  // Conservation-audit totals, so a sweep table records that every point's
  // books balanced (zeros when the audit was off).
  row.add("audit_created", static_cast<std::int64_t>(s.result.audit.created));
  row.add("audit_delivered",
          static_cast<std::int64_t>(s.result.audit.delivered));
  row.add("audit_dropped", static_cast<std::int64_t>(s.result.audit.dropped));
  // Per-cause drop attribution (fault injection): always sums to
  // audit_dropped; the down/fault columns are zero on un-faulted runs.
  row.add("audit_drops_queue",
          static_cast<std::int64_t>(s.result.audit.drops_queue));
  row.add("audit_drops_down",
          static_cast<std::int64_t>(s.result.audit.drops_down));
  row.add("audit_drops_fault",
          static_cast<std::int64_t>(s.result.audit.drops_fault));
  // ECN CE marks (AQM disciplines with ecn set). Outside the conservation
  // law — marked packets deliver normally — but recorded so a sweep over an
  // ECN grid can show the marking actually engaged.
  row.add("audit_marks", static_cast<std::int64_t>(s.result.audit.marks));
  // Per-flow goodput distribution (packets/sec over the measurement window)
  // and Jain's fairness, for the many-flow Topology scenarios.
  row.add("flows", static_cast<std::int64_t>(s.flows.flows));
  row.add("flow_goodput_min", s.flows.goodput_min);
  row.add("flow_goodput_mean", s.flows.goodput_mean);
  row.add("flow_goodput_max", s.flows.goodput_max);
  row.add("jain_fairness", s.flows.jain);
  return row;
}

}  // namespace tcpdyn::core
