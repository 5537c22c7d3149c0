// Simulation time as a strong integer-nanosecond type. Integer time keeps
// event ordering exact and runs reproducible; doubles would accumulate
// rounding in the 50 Kbps transmission-time arithmetic this study depends on
// (ACK spacing differences of microseconds decide whether packets cluster).
#pragma once

#include <cstdint>
#include <ostream>

namespace tcpdyn::sim {

class Time {
 public:
  constexpr Time() = default;

  static constexpr Time nanoseconds(std::int64_t ns) { return Time(ns); }
  static constexpr Time microseconds(std::int64_t us) { return Time(us * 1000); }
  static constexpr Time milliseconds(std::int64_t ms) {
    return Time(ms * 1'000'000);
  }
  // |s| must stay below 9.2e9, or the int64 nanosecond count overflows (an
  // undefined conversion); text is read as util::ValueKind kDelay, which
  // checks it, and core::run_end checks a run's warmup + duration.
  static constexpr Time seconds(double s) {
    return Time(static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5)));
  }
  static constexpr Time zero() { return Time(0); }
  static constexpr Time max() { return Time(INT64_MAX); }

  // Serialization time of `bytes` at `bits_per_second` (rounded to ns).
  static constexpr Time transmission(std::int64_t bytes,
                                     std::int64_t bits_per_second) {
    // bytes*8 / bps seconds -> multiply first to keep integer precision.
    return Time(bytes * 8 * 1'000'000'000 / bits_per_second);
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double sec() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr Time operator+(Time o) const { return Time(ns_ + o.ns_); }
  constexpr Time operator-(Time o) const { return Time(ns_ - o.ns_); }
  constexpr Time& operator+=(Time o) { ns_ += o.ns_; return *this; }
  constexpr Time& operator-=(Time o) { ns_ -= o.ns_; return *this; }
  constexpr Time operator*(std::int64_t k) const { return Time(ns_ * k); }
  constexpr Time operator/(std::int64_t k) const { return Time(ns_ / k); }
  constexpr auto operator<=>(const Time&) const = default;

 private:
  constexpr explicit Time(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, Time t) {
  return os << t.sec() << "s";
}

}  // namespace tcpdyn::sim
