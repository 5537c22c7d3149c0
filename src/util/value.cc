#include "util/value.h"

#include <cfloat>
#include <charconv>
#include <cmath>
#include <istream>
#include <iterator>
#include <sstream>

namespace tcpdyn::util {

namespace {

// One row per ValueKind, in declaration order: the accepted range from lo
// to hi, each end closed unless marked open, whether the value must be
// whole, and the rule's one phrasing.
struct Rule {
  double lo;
  double hi;
  bool open_lo;
  bool open_hi;
  bool whole;
  const char* text;
};

constexpr double k2p32 = 4294967296.0;
constexpr double k2p63 = 9223372036854775808.0;
constexpr double k2p64 = 18446744073709551616.0;
// sim::Time holds int64 nanoseconds: s < 9.2e9 stays clear of 2^63 ns.
constexpr double kMaxSeconds = 9.2e9;

constexpr Rule kRules[] = {
    {-DBL_MAX, DBL_MAX, false, false, false, "a finite decimal number"},
    {-k2p63, k2p63, false, true, true,
     "a whole number from -9223372036854775808 to 9223372036854775807"},
    {0.0, kMaxSeconds, false, true, false,
     "finite seconds with 0 <= s < 9.2e9"},
    {0.0, k2p64, false, true, true,
     "a whole number from 0 to 18446744073709551615"},
    {0.0, k2p32, false, true, true, "a whole number from 0 to 4294967295"},
    {1.0, k2p64, false, true, true,
     "a whole number of packets from 1 to 18446744073709551615"},
    {0.0, 1.0, false, false, false, "a probability in [0, 1]"},
    {0.0, DBL_MAX, false, false, false, "a finite rate >= 0"},
    {1.0, k2p63, false, true, true,
     "a whole number of b/s from 1 to 9223372036854775807"},
    {0.0, k2p64, false, true, true,
     "a decimal integer from 0 to 18446744073709551615"},
    {0.0, 1.0, false, false, true, "0 or 1"},
};
static_assert(std::size(kRules) ==
                  static_cast<std::size_t>(ValueKind::kSwitch) + 1,
              "one rule per ValueKind");
static_assert(sizeof(std::size_t) == 8, "kCount's rule is a 64-bit size_t");

const Rule& rule_of(ValueKind kind) {
  return kRules[static_cast<std::size_t>(kind)];
}

}  // namespace

std::optional<double> number(std::string_view text) {
  // strtod's decimal form takes one leading '+'; from_chars takes none.
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  // from_chars spells "nan" and "inf" too, and stops at an 'x' ("0x10").
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

bool fits(ValueKind kind, double value) {
  const Rule& r = rule_of(kind);
  // NaN fails every comparison.
  const bool above = r.open_lo ? value > r.lo : value >= r.lo;
  const bool below = r.open_hi ? value < r.hi : value <= r.hi;
  return above && below && (!r.whole || std::trunc(value) == value);
}

std::invalid_argument rejection(ValueKind kind, std::string_view what,
                                std::string_view got) {
  return std::invalid_argument(std::string(what) + " must be " +
                               rule_of(kind).text + ", got '" +
                               std::string(got) + "'");
}

double read(ValueKind kind, std::string_view text, std::string_view what) {
  if (kind == ValueKind::kSeed) {
    return static_cast<double>(read_seed(text, what));
  }
  const std::optional<double> v = number(text);
  if (!v || !fits(kind, *v)) throw rejection(kind, what, text);
  return *v;
}

std::uint64_t read_seed(std::string_view text, std::string_view what) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw rejection(ValueKind::kSeed, what, text);
  }
  return v;
}

void for_each_line(
    std::istream& in,
    const std::function<void(std::size_t, std::vector<std::string>&)>& fn) {
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    std::istringstream text(line.substr(0, line.find('#')));
    std::vector<std::string> words{std::istream_iterator<std::string>(text),
                                   std::istream_iterator<std::string>()};
    if (!words.empty()) fn(lineno, words);
  }
}

}  // namespace tcpdyn::util
