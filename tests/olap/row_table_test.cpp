#include "olap/row_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "default_cube_spec.h"
#include "row_tables.h"

namespace bohr::olap {
namespace {

Schema mixed_schema() {
  return Schema({{"id", AttributeType::Integer, false},
                 {"name", AttributeType::Text, false},
                 {"score", AttributeType::Real, false},
                 {"amount", AttributeType::Real, true}});
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Records covering each type's edge values: the int64 extremes, -0.0, a
/// subnormal, negative reals, an empty string and strings holding commas
/// and quotes.
std::vector<Row> edge_rows() {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  return {
      {kMin, std::string{}, -0.0, -1.5},
      {kMax, std::string{"a,b"}, subnormal, 0.0},
      {std::int64_t{0}, std::string{"say \"hi\""}, -123.456, -0.0},
      {std::int64_t{-1}, std::string{"\",\""}, 0.0, subnormal},
      {std::int64_t{42}, std::string{"plain"}, 1e6, -7e-300},
  };
}

TEST(RowTableTest, ColumnsReadTheValueHashesOfEveryType) {
  const std::vector<Row> rows = edge_rows();
  const RowTable table = table_of(mixed_schema(), rows);
  ASSERT_EQ(table.size(), rows.size());
  ASSERT_EQ(table.attribute_count(), 4u);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t a = 0; a < rows[r].size(); ++a) {
      const Value& v = rows[r][a];
      EXPECT_EQ(table.member(a, r), value_to_member(v))
          << "row " << r << " attribute " << a;
      EXPECT_EQ(bits(table.measure(a, r)), bits(value_to_double(v)))
          << "row " << r << " attribute " << a;
      const Value stored = table.value(a, r);
      ASSERT_EQ(stored.index(), v.index());
      if (const auto* d = std::get_if<double>(&v)) {
        EXPECT_EQ(bits(std::get<double>(stored)), bits(*d));  // keeps -0.0
      } else {
        EXPECT_EQ(stored, v);
      }
    }
  }
}

TEST(RowTableTest, CubeBuilderReadsCoordinatesAndMeasuresFromColumns) {
  const std::vector<Row> rows = edge_rows();
  const RowTable table = table_of(mixed_schema(), rows);
  const CubeBuilder builder(default_cube_spec(mixed_schema()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const CellCoords coords = builder.coords_for(table, r);
    ASSERT_EQ(coords.size(), 3u);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(coords[d], value_to_member(rows[r][d]));
    }
    EXPECT_EQ(bits(builder.measure_for(table, r)),
              bits(value_to_double(rows[r][3])));
  }
  EXPECT_THROW(builder.coords_for(table, rows.size()),
               bohr::ContractViolation);
}

TEST(RowTableTest, AppendRejectsAWrongArityAndLeavesTheTableUnchanged) {
  RowTable table = table_of(mixed_schema(), edge_rows());
  const std::vector<Row> before = rows_of(table);
  EXPECT_THROW(table.append({std::int64_t{1}, std::string{"x"}, 1.0}),
               bohr::ContractViolation);
  EXPECT_THROW(
      table.append({std::int64_t{1}, std::string{"x"}, 1.0, 2.0, 3.0}),
      bohr::ContractViolation);
  EXPECT_THROW(table.append({}), bohr::ContractViolation);
  EXPECT_EQ(rows_of(table), before);
}

TEST(RowTableTest, AppendRejectsAValueOfTheWrongTypeAndLeavesTheTable) {
  RowTable table = table_of(mixed_schema(), edge_rows());
  const std::vector<Row> before = rows_of(table);
  // A double where an int64 belongs, an int64 where a double belongs,
  // and a string where a double belongs; the first values are valid.
  EXPECT_THROW(table.append({1.0, std::string{"x"}, 1.0, 2.0}),
               bohr::ContractViolation);
  EXPECT_THROW(table.append({std::int64_t{1}, std::string{"x"},
                             std::int64_t{1}, 2.0}),
               bohr::ContractViolation);
  EXPECT_THROW(table.append({std::int64_t{1}, std::string{"x"}, 1.0,
                             std::string{"2.0"}}),
               bohr::ContractViolation);
  EXPECT_EQ(rows_of(table), before);
  table.append({std::int64_t{7}, std::string{"y"}, 0.5, 0.25});
  EXPECT_EQ(table.size(), before.size() + 1);
  EXPECT_EQ(row_of(table, before.size()),
            (Row{std::int64_t{7}, std::string{"y"}, 0.5, 0.25}));
}

TEST(RowTableTest, AppendRangeAndRowsKeepRowOrder) {
  const std::vector<Row> rows = edge_rows();
  const RowTable source = table_of(mixed_schema(), rows);
  RowTable copy(mixed_schema());
  copy.append_range(source, 1, 4);
  EXPECT_EQ(rows_of(copy), (std::vector<Row>{rows[1], rows[2], rows[3]}));
  copy.append_rows(source, std::vector<std::size_t>{4, 0, 2});
  EXPECT_EQ(rows_of(copy), (std::vector<Row>{rows[1], rows[2], rows[3],
                                             rows[4], rows[0], rows[2]}));
  EXPECT_THROW(copy.append_range(source, 2, 6), bohr::ContractViolation);
  EXPECT_THROW(copy.append_rows(source, std::vector<std::size_t>{5}),
               bohr::ContractViolation);
  // A table of other column types cannot be appended from.
  const RowTable ints(Schema({{"a", AttributeType::Integer, false},
                              {"b", AttributeType::Integer, false},
                              {"c", AttributeType::Integer, false},
                              {"d", AttributeType::Integer, false}}));
  EXPECT_THROW(copy.append_range(ints, 0, 0), bohr::ContractViolation);
  EXPECT_EQ(copy.size(), 6u);
}

TEST(RowTableTest, TakenColumnsMustMatchTheSchema) {
  const Schema schema({{"k", AttributeType::Integer, false},
                       {"v", AttributeType::Real, true}});
  const auto columns = [](RowTable::Column k, RowTable::Column v) {
    std::vector<RowTable::Column> out;
    out.push_back(std::move(k));
    out.push_back(std::move(v));
    return out;
  };
  const RowTable table(
      schema, columns(std::vector<std::int64_t>{3, -4},
                      std::vector<double>{0.5, -0.0}));
  EXPECT_EQ(rows_of(table), (std::vector<Row>{{std::int64_t{3}, 0.5},
                                              {std::int64_t{-4}, -0.0}}));
  EXPECT_EQ(table.type(0), AttributeType::Integer);
  EXPECT_EQ(table.type(1), AttributeType::Real);
  EXPECT_THROW(RowTable(schema, columns(std::vector<double>{1.0},
                                        std::vector<double>{1.0})),
               bohr::ContractViolation);
  EXPECT_THROW(RowTable(schema, columns(std::vector<std::int64_t>{1, 2},
                                        std::vector<double>{1.0})),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::olap
