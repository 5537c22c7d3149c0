#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace tcpdyn::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

namespace {

// Display width of a UTF-8 cell: its code points, so a multi-byte
// character such as '§' or 'τ' counts one column.
std::size_t columns(const std::string& cell) {
  return static_cast<std::size_t>(
      std::count_if(cell.begin(), cell.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
      }));
}

}  // namespace

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) {
    widths[i] = columns(header_[i]);
  }
  for (const auto& row : rows_) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], columns(row[i]));
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string();
      os << c << std::string(widths[i] + 2 - columns(c), ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

}  // namespace tcpdyn::util
