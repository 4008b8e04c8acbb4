#include "benchcore/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace doceph::benchcore {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  std::string s = os.str();
  // A negative value that rounds to zero prints as zero, not "-0".
  if (s.front() == '-' && s.find_first_not_of("0.", 1) == std::string::npos)
    s.erase(0, 1);
  return s;
}

std::string Table::pct(double fraction, int precision) {
  return num(fraction * 100.0, precision) + "%";
}

void Table::print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i)
      widths[i] = std::max(widths[i], r[i].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("|");
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : "";
      std::printf(" %-*s |", static_cast<int>(widths[i]), c.c_str());
    }
    std::printf("\n");
  };
  auto rule = [&] {
    std::printf("+");
    for (const auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  rule();
  print_row(headers_);
  rule();
  for (const auto& r : rows_) print_row(r);
  rule();
}

void print_banner(const std::string& id, const std::string& what) {
  std::printf("\n==============================================================\n");
  std::printf("  %s — %s\n", id.c_str(), what.c_str());
  std::printf("  (simulated reproduction; compare shape, not absolute values)\n");
  std::printf("==============================================================\n");
}

}  // namespace doceph::benchcore
