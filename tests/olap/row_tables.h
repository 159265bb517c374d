// Test helpers between single records and typed row tables: a table
// built from records, and a table's rows read back as records.
#pragma once

#include <cstddef>
#include <vector>

#include "olap/row_table.h"

namespace bohr::olap {

/// A table over `schema` holding `rows`, appended in order.
inline RowTable table_of(const Schema& schema, const std::vector<Row>& rows) {
  RowTable table(schema);
  for (const Row& row : rows) table.append(row);
  return table;
}

/// Row `r` of `table`, value by value.
inline Row row_of(const RowTable& table, std::size_t r) {
  Row row;
  for (std::size_t a = 0; a < table.attribute_count(); ++a) {
    row.push_back(table.value(a, r));
  }
  return row;
}

/// Every row of `table`, in order.
inline std::vector<Row> rows_of(const RowTable& table) {
  std::vector<Row> rows;
  for (std::size_t r = 0; r < table.size(); ++r) {
    rows.push_back(row_of(table, r));
  }
  return rows;
}

}  // namespace bohr::olap
