#include "olap/row_table.h"

#include <utility>

#include "common/check.h"

namespace bohr::olap {

namespace {

RowTable::Column empty_column(AttributeType type) {
  switch (type) {
    case AttributeType::Integer:
      return std::vector<std::int64_t>{};
    case AttributeType::Real:
      return std::vector<double>{};
    case AttributeType::Text:
      break;
  }
  BOHR_EXPECTS(type == AttributeType::Text);
  return std::vector<std::string>{};
}

}  // namespace

RowTable::RowTable(const Schema& schema) {
  columns_.reserve(schema.attribute_count());
  for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
    columns_.push_back(empty_column(schema.attribute(a).type));
  }
}

RowTable::RowTable(const Schema& schema, std::vector<Column> columns)
    : columns_(std::move(columns)) {
  BOHR_EXPECTS(columns_.size() == schema.attribute_count());
  BOHR_EXPECTS(!columns_.empty());
  size_ = std::visit([](const auto& v) { return v.size(); }, columns_[0]);
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    BOHR_EXPECTS(columns_[a].index() ==
                 static_cast<std::size_t>(schema.attribute(a).type));
    BOHR_EXPECTS(std::visit([](const auto& v) { return v.size(); },
                            columns_[a]) == size_);
  }
}

AttributeType RowTable::type(std::size_t attr) const {
  BOHR_EXPECTS(attr < columns_.size());
  return static_cast<AttributeType>(columns_[attr].index());
}

void RowTable::reserve(std::size_t rows) {
  for (Column& c : columns_) {
    std::visit([rows](auto& v) { v.reserve(rows); }, c);
  }
}

void RowTable::expect_same_types(const RowTable& other) const {
  BOHR_EXPECTS(other.columns_.size() == columns_.size());
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    BOHR_EXPECTS(other.columns_[a].index() == columns_[a].index());
  }
}

void RowTable::append(const Row& row) {
  BOHR_EXPECTS(row.size() == columns_.size());
  for (std::size_t a = 0; a < row.size(); ++a) {
    BOHR_EXPECTS(row[a].index() == columns_[a].index());
  }
  for (std::size_t a = 0; a < row.size(); ++a) {
    std::visit(
        [&](auto& column) {
          using T = typename std::decay_t<decltype(column)>::value_type;
          column.push_back(std::get<T>(row[a]));
        },
        columns_[a]);
  }
  ++size_;
}

void RowTable::append_range(const RowTable& from, std::size_t begin,
                            std::size_t end) {
  BOHR_EXPECTS(begin <= end && end <= from.size_);
  expect_same_types(from);
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    std::visit(
        [&](auto& column) {
          const auto& source =
              std::get<std::decay_t<decltype(column)>>(from.columns_[a]);
          column.insert(column.end(),
                        source.begin() + static_cast<std::ptrdiff_t>(begin),
                        source.begin() + static_cast<std::ptrdiff_t>(end));
        },
        columns_[a]);
  }
  size_ += end - begin;
}

void RowTable::append_rows(const RowTable& from,
                           std::span<const std::size_t> rows) {
  for (const std::size_t r : rows) BOHR_EXPECTS(r < from.size_);
  expect_same_types(from);
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    std::visit(
        [&](auto& column) {
          const auto& source =
              std::get<std::decay_t<decltype(column)>>(from.columns_[a]);
          column.reserve(column.size() + rows.size());
          for (const std::size_t r : rows) column.push_back(source[r]);
        },
        columns_[a]);
  }
  size_ += rows.size();
}

Value RowTable::value(std::size_t attr, std::size_t row) const {
  BOHR_EXPECTS(attr < columns_.size());
  BOHR_EXPECTS(row < size_);
  return std::visit([row](const auto& column) { return Value(column[row]); },
                    columns_[attr]);
}

}  // namespace bohr::olap
