#include "olap/cube_query.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace bohr::olap {
namespace {

MemberId store_id(std::int64_t store) { return static_cast<MemberId>(store); }

/// A store keyed the way CubeBuilder keys a text attribute: the hash of
/// its name.
MemberId store_name(std::int64_t store) {
  return value_to_member(Value("store-" + std::to_string(store)));
}

// Sales cube: (year, store, product) -> revenue, with store members from
// `store`.
OlapCube sales(MemberId (*store)(std::int64_t) = store_id) {
  const Dimension year("year", {{"year", 1}, {"decade", 10}});
  OlapCube cube({year, Dimension("store"), Dimension("product")});
  cube.insert({2021, store(1), 100}, 10.0);
  cube.insert({2021, store(1), 100}, 20.0);
  cube.insert({2021, store(2), 100}, 5.0);
  cube.insert({2022, store(1), 101}, 50.0);
  cube.insert({2022, store(2), 101}, 25.0);
  cube.insert({2022, store(2), 102}, 1.0);
  return cube;
}

TEST(CubeQueryTest, GroupBySumOrdersByValue) {
  CubeQuery q;
  q.group_by = {2};  // product
  q.aggregate = CubeAggregate::Sum;
  const auto rows = execute(sales(), q);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].group, CellCoords{101});  // 75
  EXPECT_DOUBLE_EQ(rows[0].value, 75.0);
  EXPECT_EQ(rows[1].group, CellCoords{100});  // 35
  EXPECT_DOUBLE_EQ(rows[1].value, 35.0);
  EXPECT_EQ(rows[2].group, CellCoords{102});  // 1
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[1].count, 3u);
}

TEST(CubeQueryTest, AscendingOrder) {
  CubeQuery q;
  q.group_by = {2};
  q.descending = false;
  const auto rows = execute(sales(), q);
  EXPECT_DOUBLE_EQ(rows.front().value, 1.0);
  EXPECT_DOUBLE_EQ(rows.back().value, 75.0);
}

TEST(CubeQueryTest, FilterRestrictsGroups) {
  for (const auto store : {store_id, store_name}) {
    CubeQuery q;
    q.group_by = {2};
    q.filters.push_back({1, {store(1)}});  // store 1 only
    const auto rows = execute(sales(store), q);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0].value, 50.0);  // product 101 at store 1
    EXPECT_DOUBLE_EQ(rows[1].value, 30.0);  // product 100 at store 1
  }
}

TEST(CubeQueryTest, ConjunctiveFilters) {
  CubeQuery q;
  q.group_by = {2};
  q.filters.push_back({1, {MemberId{2}}});
  q.filters.push_back({0, {MemberId{2022}}});
  const auto rows = execute(sales(), q);
  ASSERT_EQ(rows.size(), 2u);  // products 101, 102 at store 2 in 2022
}

TEST(CubeQueryTest, AggregateSelection) {
  CubeQuery q;
  q.group_by = {2};
  q.filters.push_back({2, {MemberId{100}}});
  q.aggregate = CubeAggregate::Count;
  EXPECT_DOUBLE_EQ(execute(sales(), q)[0].value, 3.0);
  q.aggregate = CubeAggregate::Avg;
  EXPECT_NEAR(execute(sales(), q)[0].value, 35.0 / 3.0, 1e-12);
  q.aggregate = CubeAggregate::Min;
  EXPECT_DOUBLE_EQ(execute(sales(), q)[0].value, 5.0);
  q.aggregate = CubeAggregate::Max;
  EXPECT_DOUBLE_EQ(execute(sales(), q)[0].value, 20.0);
}

TEST(CubeQueryTest, IcebergThreshold) {
  CubeQuery q;
  q.group_by = {2};
  q.having_min_count = 2;  // drop product 102 (single record)
  const auto rows = execute(sales(), q);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& r : rows) EXPECT_GE(r.count, 2u);
}

TEST(CubeQueryTest, TopK) {
  CubeQuery q;
  q.group_by = {2};
  q.top_k = 1;
  const auto rows = execute(sales(), q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].value, 75.0);
}

TEST(CubeQueryTest, GroupAtRollupLevel) {
  CubeQuery q;
  q.group_by = {0};       // year
  q.group_levels = {1};   // decade
  q.aggregate = CubeAggregate::Sum;
  const auto rows = execute(sales(), q);
  // 2021 and 2022 share decade 202.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].group, CellCoords{202});
  EXPECT_DOUBLE_EQ(rows[0].value, 111.0);
  EXPECT_EQ(rows[0].count, 6u);
}

TEST(CubeQueryTest, MultiDimensionGroup) {
  CubeQuery q;
  q.group_by = {0, 1};  // (year, store)
  const auto rows = execute(sales(), q);
  EXPECT_EQ(rows.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& r : rows) total += r.count;
  EXPECT_EQ(total, 6u);
}

TEST(CubeQueryTest, InvalidQueriesThrow) {
  CubeQuery empty_group;
  EXPECT_THROW(execute(sales(), empty_group), bohr::ContractViolation);
  CubeQuery dup;
  dup.group_by = {0, 0};
  EXPECT_THROW(execute(sales(), dup), bohr::ContractViolation);
  CubeQuery bad_filter;
  bad_filter.group_by = {0};
  bad_filter.filters.push_back({9, {}});
  EXPECT_THROW(execute(sales(), bad_filter), bohr::ContractViolation);
  CubeQuery bad_level;
  bad_level.group_by = {1};
  bad_level.group_levels = {5};
  EXPECT_THROW(execute(sales(), bad_level), bohr::ContractViolation);
}

TEST(CubeQueryTest, EmptyCubeEmptyResult) {
  OlapCube cube({Dimension("k")});
  CubeQuery q;
  q.group_by = {0};
  EXPECT_TRUE(execute(cube, q).empty());
}

}  // namespace
}  // namespace bohr::olap
