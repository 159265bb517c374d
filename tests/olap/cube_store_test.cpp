#include "olap/cube_store.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "default_cube_spec.h"
#include "row_tables.h"

namespace bohr::olap {
namespace {

Schema log_schema() {
  return Schema({{"url", AttributeType::Text, false},
                 {"region", AttributeType::Integer, false},
                 {"date", AttributeType::Integer, false},
                 {"score", AttributeType::Real, true}});
}

Row make_row(const std::string& url, std::int64_t region, std::int64_t date,
             double score) {
  return Row{url, region, date, score};
}

DatasetCubes make_store() {
  return DatasetCubes(CubeBuilder(default_cube_spec(log_schema())));
}

/// Adds `rows` to `store` as one table.
void add(DatasetCubes& store, const std::vector<Row>& rows) {
  const RowTable table = table_of(log_schema(), rows);
  store.add_rows(table, 0, table.size());
}

TEST(CubeBuilderTest, DefaultSpecUsesDimensionsAndMeasure) {
  const CubeSpec spec = default_cube_spec(log_schema());
  EXPECT_EQ(spec.dim_attrs.size(), 3u);
  ASSERT_TRUE(spec.measure_attr.has_value());
  EXPECT_EQ(*spec.measure_attr, 3u);
}

TEST(CubeBuilderTest, BuildAggregatesDuplicateRows) {
  const CubeBuilder builder(default_cube_spec(log_schema()));
  const RowTable rows = table_of(
      log_schema(), {make_row("a", 1, 10, 1.0), make_row("a", 1, 10, 2.0),
                     make_row("b", 1, 10, 3.0)});
  const OlapCube cube = builder.build(rows);
  EXPECT_EQ(cube.cell_count(), 2u);
  EXPECT_EQ(cube.total_records(), 3u);
}

TEST(CubeBuilderTest, MoreThanFourDimensionsThrows) {
  const Schema wide({{"a", AttributeType::Integer, false},
                     {"b", AttributeType::Integer, false},
                     {"c", AttributeType::Integer, false},
                     {"d", AttributeType::Integer, false},
                     {"e", AttributeType::Integer, false},
                     {"score", AttributeType::Real, true}});
  const CubeSpec spec = default_cube_spec(wide);
  ASSERT_EQ(spec.dim_attrs.size(), 5u);
  EXPECT_THROW(CubeBuilder{spec}, bohr::ContractViolation);
}

TEST(CubeBuilderTest, CoordsAreStableAcrossBuilders) {
  const CubeBuilder b1(default_cube_spec(log_schema()));
  const CubeBuilder b2(default_cube_spec(log_schema()));
  const RowTable rows = table_of(log_schema(), {make_row("x", 2, 5, 1.0)});
  EXPECT_EQ(b1.coords_for(rows, 0), b2.coords_for(rows, 0));
}

TEST(DatasetCubesTest, RegisterQueryTypeDeduplicates) {
  DatasetCubes store = make_store();
  const QueryTypeId a = store.register_query_type({0, 1});
  const QueryTypeId b = store.register_query_type({1, 0});  // same set
  const QueryTypeId c = store.register_query_type({2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(store.query_type_count(), 2u);
}

TEST(DatasetCubesTest, AddRowsUpdatesAllCubes) {
  DatasetCubes store = make_store();
  const QueryTypeId by_url = store.register_query_type({0});
  const QueryTypeId by_region_date = store.register_query_type({1, 2});
  add(store, {make_row("a", 1, 10, 1.0), make_row("a", 2, 10, 2.0),
              make_row("b", 1, 11, 3.0)});
  EXPECT_EQ(store.base_cube().total_records(), 3u);
  // By url: "a" x2, "b" x1 -> 2 cells.
  EXPECT_EQ(store.dimension_cube(by_url).cell_count(), 2u);
  // By (region, date): (1,10), (2,10), (1,11) -> 3 cells.
  EXPECT_EQ(store.dimension_cube(by_region_date).cell_count(), 3u);
}

TEST(DatasetCubesTest, RegisteringAfterDataProjectsFromBase) {
  DatasetCubes store = make_store();
  add(store, {make_row("a", 1, 10, 1.0), make_row("a", 2, 11, 2.0)});
  const QueryTypeId by_url = store.register_query_type({0});
  EXPECT_EQ(store.dimension_cube(by_url).cell_count(), 1u);
  EXPECT_EQ(store.dimension_cube(by_url).total_records(), 2u);
}

TEST(DatasetCubesTest, RebuildDimensionCubeMatchesIncremental) {
  DatasetCubes store = make_store();
  const QueryTypeId by_rd = store.register_query_type({1, 2});
  add(store, {make_row("a", 1, 10, 1.0), make_row("b", 1, 10, 2.0),
              make_row("c", 2, 11, 3.0)});
  const OlapCube rebuilt =
      store.base_cube().project(store.query_type_dims(by_rd));
  EXPECT_EQ(rebuilt.cell_count(), store.dimension_cube(by_rd).cell_count());
  EXPECT_EQ(rebuilt.total_records(),
            store.dimension_cube(by_rd).total_records());
}

TEST(DatasetCubesTest, InvalidQueryTypeThrows) {
  DatasetCubes store = make_store();
  EXPECT_THROW(store.dimension_cube(0), bohr::ContractViolation);
  EXPECT_THROW(store.register_query_type({9}), bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::olap
