// Input values: the one place where text becomes a number. .topo fields,
// fault directives, sweep-grid axes and command-line flags all read their
// numbers here, so one spelling means one value on every surface, and each
// kind of field has one rule and one message, "<field> must be <rule>, got
// '<text>'", the surface naming the field and its place. README "Input
// values" gives which text is a number and the fields of each kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tcpdyn::util {

enum class ValueKind : std::uint8_t {
  kNumber,         // any number (the rep axis, range bounds, bench flags)
  kInteger,        // a whole number an int64 holds
  kDelay,          // seconds, 0 <= s < 9.2e9, which sim::Time's ns hold
  kCount,          // a whole number a size_t holds
  kU32,            // a whole number a uint32 holds
  kBuffer,         // a whole number of packets, at least 1
  kProbability,    // 0 <= p <= 1
  kRate,           // a finite rate >= 0
  kBitsPerSecond,  // a whole number of b/s an int64 holds, at least 1
  kSeed,           // decimal digits a uint64 holds, read by read_seed
  kSwitch,         // 0 or 1
};

// The number `text` spells: decimal digits with an optional sign, fraction
// and exponent ("20", "-0.5", "1.5e3"). nullopt for anything else (empty
// text, "nan", "inf", hex, trailing characters) and past double's range.
std::optional<double> number(std::string_view text);

// Whether `value` keeps `kind`'s rule.
bool fits(ValueKind kind, double value);

// `kind`'s one message: "<what> must be <rule>, got '<got>'".
std::invalid_argument rejection(ValueKind kind, std::string_view what,
                                std::string_view got);

// `text` as a value of `kind`; throws rejection(kind, what, text) when it
// is no number or breaks the rule. Every value is exact as a double but a
// seed above 2^53, which read_seed returns exactly.
double read(ValueKind kind, std::string_view text, std::string_view what);
std::uint64_t read_seed(std::string_view text, std::string_view what);

// read() as the integer type T that holds `kind`'s whole range.
template <class T>
T read_as(ValueKind kind, std::string_view text, std::string_view what) {
  return static_cast<T>(read(kind, text, what));
}

// Calls fn(lineno, words) for each line of `in` that has words once its '#'
// comment is cut, counting lines from 1: the .topo and fault-file reader.
void for_each_line(
    std::istream& in,
    const std::function<void(std::size_t, std::vector<std::string>&)>& fn);

}  // namespace tcpdyn::util
