// Console table / CSV rendering for the benchmark harness, so every bench
// binary prints rows that mirror the paper's tables and figure series.
#pragma once

#include <string>
#include <vector>

namespace bohr {

/// Builds an aligned, boxed text table. Cells are strings; numeric helpers
/// format with fixed precision.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with the given number of decimals.
  static std::string num(double value, int decimals = 2);

  /// Renders the table with aligned columns.
  std::string to_string() const;

  /// Renders as CSV (header row + data rows).
  std::string to_csv() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bohr
