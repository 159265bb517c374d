// One dataset's rows at one site, stored as typed columns (§2.2, §4.1:
// each site keeps its raw rows next to the cubes built from them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "olap/schema.h"
#include "olap/value.h"

namespace bohr::olap {

/// One column per schema attribute: an Integer attribute is a vector of
/// int64, a Real one a vector of double, a Text one a vector of strings.
/// Row r is position r of every column, so an int64/double row costs its
/// 8 bytes per value and no heap block of its own. Member ids and
/// measures are read straight from the columns through the typed
/// value_to_member / value_to_double overloads, so they equal what the
/// Value overloads give for the same value.
class RowTable {
 public:
  /// A column's values; the alternative's index is its AttributeType's,
  /// and Value's for the same type.
  using Column = std::variant<std::vector<std::int64_t>, std::vector<double>,
                              std::vector<std::string>>;

  RowTable() = default;
  /// An empty table with one column per attribute of `schema`.
  explicit RowTable(const Schema& schema);
  /// A table over `schema` that takes `columns`: one per attribute, each
  /// of its attribute's type, all of one length.
  RowTable(const Schema& schema, std::vector<Column> columns);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t attribute_count() const { return columns_.size(); }
  AttributeType type(std::size_t attr) const;

  void reserve(std::size_t rows);

  /// Appends one record. Throws ContractViolation when its value count is
  /// not the attribute count, or when a value's alternative is not its
  /// attribute's type; the table is then unchanged.
  void append(const Row& row);

  /// Appends rows [begin, end) of `from`, whose column types must be
  /// this table's, in order.
  void append_range(const RowTable& from, std::size_t begin, std::size_t end);

  /// Appends the rows of `from` at `rows`, in that order.
  void append_rows(const RowTable& from, std::span<const std::size_t> rows);

  /// value_to_member of the value at (attr, row).
  MemberId member(std::size_t attr, std::size_t row) const {
    const Column& c = columns_[attr];
    if (const auto* i = std::get_if<0>(&c)) return value_to_member((*i)[row]);
    if (const auto* d = std::get_if<1>(&c)) return value_to_member((*d)[row]);
    return value_to_member(std::get<2>(c)[row]);
  }

  /// value_to_double of the value at (attr, row).
  double measure(std::size_t attr, std::size_t row) const {
    const Column& c = columns_[attr];
    if (const auto* i = std::get_if<0>(&c)) return value_to_double((*i)[row]);
    if (const auto* d = std::get_if<1>(&c)) return value_to_double((*d)[row]);
    return value_to_double(std::get<2>(c)[row]);
  }

  /// The value at (attr, row), for the writers that print or encode a
  /// record value by value.
  Value value(std::size_t attr, std::size_t row) const;

 private:
  /// Throws ContractViolation unless `other` has this table's column
  /// types, in order.
  void expect_same_types(const RowTable& other) const;

  std::vector<Column> columns_;
  std::size_t size_ = 0;
};

}  // namespace bohr::olap
