#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/check.h"

namespace bohr {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  BOHR_EXPECTS(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  BOHR_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::num(double value, int decimals) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(decimals) << value;
  return out.str();
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto rule = [&] {
    out << '+';
    for (const auto w : widths) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
          << " |";
    }
    out << '\n';
  };
  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
  return out.str();
}

std::string TablePrinter::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out << ',';
      out << cells[c];
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace bohr
