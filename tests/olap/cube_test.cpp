#include "olap/cube.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "cube_crc.h"

namespace bohr::olap {
namespace {

// A 3-dim cube mirroring Figure 2: time x region x product, measure = sales.
OlapCube sales_cube() {
  const Dimension time("time", {{"year", 1}, {"triennium", 3}});
  const Dimension region("region");
  const Dimension product("product");
  OlapCube cube({time, region, product});
  // (year, region, product) -> sales
  cube.insert({2012, 1, 100}, 10.0);
  cube.insert({2012, 1, 101}, 5.0);
  cube.insert({2013, 1, 100}, 7.0);
  cube.insert({2014, 2, 100}, 3.0);
  cube.insert({2014, 2, 101}, 8.0);
  cube.insert({2014, 1, 100}, 2.0);
  return cube;
}

OlapCube three_dim_cube() {
  return OlapCube({Dimension("a"), Dimension("b"), Dimension("c")});
}

/// Random records over a small member universe so cells collide heavily
/// (what a combiner-friendly workload looks like).
std::vector<std::pair<CellCoords, double>> random_records(std::uint64_t seed,
                                                          std::size_t n) {
  Rng rng(seed);
  std::vector<std::pair<CellCoords, double>> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back({CellCoords{rng.below(7), rng.below(5), rng.below(11)},
                       rng.uniform(-5.0, 5.0)});
  }
  return records;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CubeTest, InsertAggregatesIdenticalCoords) {
  OlapCube cube({Dimension("k")});
  cube.insert({7}, 1.0);
  cube.insert({7}, 2.0);
  cube.insert({8}, 5.0);
  EXPECT_EQ(cube.cell_count(), 2u);
  EXPECT_EQ(cube.total_records(), 3u);
  const CellAggregate* agg = cube.find({7});
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->count, 2u);
  EXPECT_DOUBLE_EQ(agg->sum, 3.0);
  EXPECT_DOUBLE_EQ(agg->min, 1.0);
  EXPECT_DOUBLE_EQ(agg->max, 2.0);
}

TEST(CubeTest, WrongArityInsertThrows) {
  OlapCube cube({Dimension("a"), Dimension("b")});
  EXPECT_THROW(cube.insert({1}, 1.0), bohr::ContractViolation);
}

TEST(CubeTest, AtMostFourDimensions) {
  std::vector<Dimension> dims = {Dimension("a"), Dimension("b"),
                                 Dimension("c"), Dimension("d")};
  OlapCube four(dims);
  four.insert({1, 2, 3, 4}, 1.0);
  EXPECT_NE(four.find({1, 2, 3, 4}), nullptr);
  dims.emplace_back("e");
  EXPECT_THROW(OlapCube{dims}, bohr::ContractViolation);
}

TEST(CubeTest, SliceFixesOneDimension) {
  const OlapCube cube = sales_cube();
  // Slice time = 2014 (like the paper's example: sales of all products in
  // all regions in 2014); result loses the time dimension.
  const OlapCube sliced = cube.slice(0, 2014);
  EXPECT_EQ(sliced.dimension_count(), 2u);
  EXPECT_EQ(sliced.total_records(), 3u);
  const CellAggregate* agg = sliced.find({2, 100});
  ASSERT_NE(agg, nullptr);
  EXPECT_DOUBLE_EQ(agg->sum, 3.0);
}

TEST(CubeTest, DiceKeepsSelectedMembers) {
  const OlapCube cube = sales_cube();
  // Dice: product A (=100) only, all dims retained.
  const OlapCube diced = cube.dice(2, {100});
  EXPECT_EQ(diced.dimension_count(), 3u);
  EXPECT_EQ(diced.total_records(), 4u);
  EXPECT_EQ(diced.find({2012, 1, 101}), nullptr);
  EXPECT_NE(diced.find({2013, 1, 100}), nullptr);
}

TEST(CubeTest, RollUpMergesCellsAtCoarserLevel) {
  const OlapCube cube = sales_cube();
  // Roll time up to the "triennium" level (granularity 3): 2012..2014 all
  // map to 671 (2012/3 = 670, 2013/3=671, 2014/3=671).
  const OlapCube rolled = cube.roll_up(0, 1);
  EXPECT_EQ(rolled.dimension_count(), 3u);
  EXPECT_EQ(rolled.total_records(), cube.total_records());
  // 2013 & 2014 (region 1, product 100) merge: 2013/3 == 2014/3 == 671.
  const CellAggregate* agg = rolled.find({671, 1, 100});
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->count, 2u);
  EXPECT_DOUBLE_EQ(agg->sum, 9.0);
}

TEST(CubeTest, RollUpAndSliceIgnoreInsertionHistory) {
  // The same 600 cells, inserted one at a time in one order and as one
  // insert_rows batch in the opposite order, so the two tables hold them
  // in opposite orders. roll_up and slice fold in coordinate order, so
  // both cubes give the same cells and sums; a fold in table order gives
  // some coarse cells different sum bits.
  const Dimension time("time", {{"day", 1}, {"week", 7}});
  const std::vector<Dimension> dims = {time, Dimension("region"),
                                       Dimension("product")};
  Rng rng(600);
  std::vector<std::pair<CellCoords, double>> cells;
  for (MemberId t = 0; t < 60; ++t) {
    for (MemberId r = 0; r < 10; ++r) {
      cells.emplace_back(CellCoords{t, r, r % 4}, rng.uniform(0.1, 1000.0));
    }
  }
  OlapCube forward(dims);
  for (const auto& [coords, measure] : cells) forward.insert(coords, measure);
  std::vector<CellCoords> reversed_coords;
  std::vector<double> reversed_measures;
  for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
    reversed_coords.push_back(it->first);
    reversed_measures.push_back(it->second);
  }
  OlapCube backward(dims);
  backward.insert_rows(reversed_coords, reversed_measures);
  const OlapCube rolled = forward.roll_up(0, 1);
  const OlapCube rolled_back = backward.roll_up(0, 1);
  EXPECT_EQ(rolled.cell_count(), 90u);  // 9 weeks (the last one partial)
  std::size_t sums_differ = 0;
  for (const auto* cell : rolled.sorted_cells()) {
    const CellAggregate* other = rolled_back.find(cell->coords);
    ASSERT_NE(other, nullptr);
    sums_differ +=
        std::memcmp(&cell->agg.sum, &other->sum, sizeof(double)) != 0;
  }
  EXPECT_EQ(sums_differ, 0u);
  EXPECT_EQ(cells_crc(rolled), cells_crc(rolled_back));
  for (const MemberId region : {0u, 3u, 9u}) {
    SCOPED_TRACE(region);
    EXPECT_EQ(cells_crc(forward.slice(1, region)),
              cells_crc(backward.slice(1, region)));
  }
}

TEST(CubeTest, PivotReordersDimensions) {
  const OlapCube cube = sales_cube();
  const OlapCube pivoted = cube.pivot({2, 0, 1});
  EXPECT_EQ(pivoted.dimension_count(), 3u);
  EXPECT_EQ(pivoted.dimension(0).name(), "product");
  const CellAggregate* agg = pivoted.find({100, 2012, 1});
  ASSERT_NE(agg, nullptr);
  EXPECT_DOUBLE_EQ(agg->sum, 10.0);
  EXPECT_EQ(pivoted.cell_count(), cube.cell_count());
}

TEST(CubeTest, PivotRejectsNonPermutation) {
  const OlapCube cube = sales_cube();
  EXPECT_THROW(cube.pivot({0, 0, 1}), bohr::ContractViolation);
  EXPECT_THROW(cube.pivot({0, 1}), bohr::ContractViolation);
}

TEST(CubeTest, ProjectBuildsDimensionCube) {
  const OlapCube cube = sales_cube();
  // Dimension cube over (product, time) — region aggregated away (§2.2).
  const OlapCube dim_cube = cube.project({2, 0});
  EXPECT_EQ(dim_cube.dimension_count(), 2u);
  EXPECT_EQ(dim_cube.total_records(), cube.total_records());
  const CellAggregate* agg = dim_cube.find({100, 2014});
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->count, 2u);  // regions 1 and 2 merged
  EXPECT_DOUBLE_EQ(agg->sum, 5.0);
}

TEST(CubeTest, ProjectionPreservesTotalCount) {
  const OlapCube cube = sales_cube();
  for (std::size_t d = 0; d < 3; ++d) {
    const OlapCube p = cube.project({d});
    std::uint64_t total = 0;
    for (const auto* cell : p.sorted_cells()) total += cell->agg.count;
    EXPECT_EQ(total, cube.total_records());
  }
}

TEST(CubeTest, TopCellsSortedByCountDeterministically) {
  OlapCube cube({Dimension("k")});
  for (int i = 0; i < 5; ++i) cube.insert({1}, 1.0);
  for (int i = 0; i < 3; ++i) cube.insert({2}, 1.0);
  cube.insert({3}, 1.0);
  const auto top = cube.top_cells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].coords, CellCoords{1});
  EXPECT_EQ(top[0].agg.count, 5u);
  EXPECT_EQ(top[1].coords, CellCoords{2});
  // k=0 returns all.
  EXPECT_EQ(cube.top_cells(0).size(), 3u);
}

TEST(CubeTest, CombineEffectiveness) {
  OlapCube cube({Dimension("k")});
  EXPECT_DOUBLE_EQ(cube.combine_effectiveness(), 0.0);
  cube.insert({1}, 1.0);
  cube.insert({2}, 1.0);
  EXPECT_DOUBLE_EQ(cube.combine_effectiveness(), 0.0);  // all unique
  cube.insert({1}, 1.0);
  cube.insert({1}, 1.0);
  // 4 records, 2 cells -> 0.5 of records removed by combining.
  EXPECT_DOUBLE_EQ(cube.combine_effectiveness(), 0.5);
}

TEST(CubeTest, MergeAddsCellwise) {
  OlapCube a({Dimension("k")});
  a.insert({1}, 1.0);
  OlapCube b({Dimension("k")});
  b.insert({1}, 2.0);
  b.insert({2}, 3.0);
  a.merge(b);
  EXPECT_EQ(a.total_records(), 3u);
  EXPECT_EQ(a.find({1})->count, 2u);
  EXPECT_DOUBLE_EQ(a.find({1})->sum, 3.0);
}

TEST(CubeTest, MergeIntoItselfThrows) {
  OlapCube cube({Dimension("k")});
  cube.insert({1}, 1.0);
  EXPECT_THROW(cube.merge(cube), bohr::ContractViolation);
  EXPECT_EQ(cube.total_records(), 1u);
  EXPECT_EQ(cube.find({1})->count, 1u);
}

TEST(CubeTest, RowsAreInCanonicalCoordinateOrder) {
  // Two cubes with the same cells inserted in opposite orders walk the
  // same cells in the same strictly ascending coordinate order.
  OlapCube forward = three_dim_cube();
  OlapCube backward = three_dim_cube();
  const auto records = random_records(0xC0FFEEu, 500);
  for (const auto& [coords, m] : records) forward.insert(coords, m);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    backward.insert(it->first, it->second);
  }
  const auto cells_f = forward.sorted_cells();
  const auto cells_b = backward.sorted_cells();
  ASSERT_EQ(cells_f.size(), cells_b.size());
  ASSERT_EQ(cells_f.size(), forward.cell_count());
  for (std::size_t i = 0; i < cells_f.size(); ++i) {
    EXPECT_EQ(cells_f[i]->coords, cells_b[i]->coords);
    if (i > 0) {
      EXPECT_LT(cells_f[i - 1]->coords, cells_f[i]->coords);
    }
    // Counts are insertion-order independent.
    EXPECT_EQ(cells_f[i]->agg.count, cells_b[i]->agg.count);
  }
}

TEST(CubeTest, LookupsAgreeWithTheMap) {
  // find() and the sorted walk read one table: every cell the walk
  // visits is found at its own aggregate, and nothing else is found.
  OlapCube cube = three_dim_cube();
  for (const auto& [coords, m] : random_records(0xF1D0u, 300)) {
    cube.insert(coords, m);
  }
  for (const Cell* cell : cube.sorted_cells()) {
    EXPECT_EQ(cube.find(cell->coords), &cell->agg);
  }
  for (MemberId probe = 100; probe < 130; ++probe) {
    EXPECT_EQ(cube.find({probe, probe, probe}), nullptr);
  }
  // Coordinates of another arity name no cell.
  EXPECT_EQ(cube.find({0, 0}), nullptr);
  EXPECT_EQ(OlapCube().find({0}), nullptr);
}

TEST(CubeTest, TopCellsMatchesFullSortReference) {
  OlapCube cube = three_dim_cube();
  for (const auto& [coords, m] : random_records(0x70Cu, 800)) {
    cube.insert(coords, m);
  }
  // Reference: copy every cell, full sort by (count desc, coords asc).
  std::vector<Cell> reference;
  for (const Cell* cell : cube.sorted_cells()) reference.push_back(*cell);
  std::sort(reference.begin(), reference.end(),
            [](const Cell& a, const Cell& b) {
              if (a.agg.count != b.agg.count) return a.agg.count > b.agg.count;
              return a.coords < b.coords;
            });
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{17}, reference.size(),
                              reference.size() + 10}) {
    const std::vector<Cell> got = cube.top_cells(k);
    const std::size_t expect_n =
        k == 0 ? reference.size() : std::min(k, reference.size());
    ASSERT_EQ(got.size(), expect_n) << "k=" << k;
    for (std::size_t i = 0; i < expect_n; ++i) {
      EXPECT_EQ(got[i].coords, reference[i].coords) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].agg.count, reference[i].agg.count);
    }
  }
}

TEST(CubeTest, InsertRowsBitIdenticalToSerialInsert) {
  // A batch of 6000 rows, large enough that many cells collect several
  // measures.
  const auto records = random_records(0xB1117u, 6000);
  std::vector<CellCoords> coords;
  std::vector<double> measures;
  for (const auto& [c, m] : records) {
    coords.push_back(c);
    measures.push_back(m);
  }

  OlapCube serial = three_dim_cube();
  for (const auto& [c, m] : records) serial.insert(c, m);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    OlapCube bulk = three_dim_cube();
    bulk.insert_rows(coords, measures);
    set_thread_count(1);

    ASSERT_EQ(bulk.cell_count(), serial.cell_count());
    ASSERT_EQ(bulk.total_records(), serial.total_records());
    for (const Cell* cell : serial.sorted_cells()) {
      const auto& [c, agg] = *cell;
      const CellAggregate* got = bulk.find(c);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->count, agg.count);
      // Bit-identical, not approximate: each cell's measures accumulate
      // in row order exactly as repeated insert() does.
      EXPECT_EQ(got->sum, agg.sum);
      EXPECT_EQ(got->min, agg.min);
      EXPECT_EQ(got->max, agg.max);
    }
  }
}

TEST(CubeTest, InsertRowsProjectsWithoutMaterializing) {
  // Projection must match inserting the projected cells one by one, for
  // a small batch and a large one.
  for (const std::size_t n : {std::size_t{600}, std::size_t{6000}}) {
    const auto records = random_records(0x9C0u, n);
    std::vector<CellCoords> coords;
    std::vector<double> measures;
    for (const auto& [c, m] : records) {
      coords.push_back(c);
      measures.push_back(m);
    }
    // Projected bulk insert over positions {2, 0} of the full coords.
    const std::vector<std::size_t> positions{2, 0};
    OlapCube projected({Dimension("c"), Dimension("a")});
    projected.insert_rows(coords, measures, positions);

    OlapCube reference({Dimension("c"), Dimension("a")});
    for (const auto& [c, m] : records) reference.insert({c[2], c[0]}, m);

    ASSERT_EQ(projected.cell_count(), reference.cell_count());
    for (const Cell* cell : reference.sorted_cells()) {
      const auto& [c, agg] = *cell;
      const CellAggregate* got = projected.find(c);
      ASSERT_NE(got, nullptr) << "n=" << n;
      EXPECT_EQ(got->count, agg.count);
      EXPECT_EQ(got->sum, agg.sum);
    }
  }
}

TEST(CubeTest, GrowingTableFindsEveryEarlierCell) {
  // 1,500 distinct cells, one at a time, take the index from 8 slots to
  // 4,096 through nine doublings. After every insert each earlier cell
  // is still found, with the bits of the measure it was given.
  OlapCube cube = three_dim_cube();
  Rng rng(0x6E0u);
  std::vector<std::pair<CellCoords, double>> added;
  for (MemberId i = 0; i < 1500; ++i) {
    added.emplace_back(CellCoords{i % 7, i / 7, i * 31},
                       rng.uniform(-5.0, 5.0));
    cube.insert(added.back().first, added.back().second);
    ASSERT_EQ(cube.cell_count(), added.size());
    for (const auto& [coords, measure] : added) {
      const CellAggregate* agg = cube.find(coords);
      ASSERT_NE(agg, nullptr) << "after " << added.size() << " cells";
      ASSERT_EQ(agg->count, 1u);
      ASSERT_EQ(bits(agg->sum), bits(measure));
      ASSERT_EQ(bits(agg->min), bits(measure));
      ASSERT_EQ(bits(agg->max), bits(measure));
    }
  }
}

TEST(CubeTest, CopyIsUnchangedByLaterInserts) {
  OlapCube cube = three_dim_cube();
  for (const auto& [c, m] : random_records(0xC09Eu, 200)) cube.insert(c, m);
  const std::uint32_t crc = cells_crc(cube);
  const std::size_t cells = cube.cell_count();
  const OlapCube copied = cube;
  // New cells, enough to grow the original's index, and more records
  // into cells the copy holds too.
  for (MemberId i = 0; i < 300; ++i) cube.insert({100 + i, i, i}, 1.0);
  for (const auto& [c, m] : random_records(0xC09Fu, 200)) cube.insert(c, m);
  ASSERT_NE(cells_crc(cube), crc);
  EXPECT_EQ(cells_crc(copied), crc);
  EXPECT_EQ(copied.cell_count(), cells);
  EXPECT_EQ(copied.total_records(), 200u);
  EXPECT_EQ(copied.find({100, 0, 0}), nullptr);
}

TEST(DimensionTest, HierarchyValidation) {
  EXPECT_THROW(Dimension("d", {{"base", 2}}), bohr::ContractViolation);
  EXPECT_THROW(Dimension("d", {{"base", 1}, {"l1", 1}}),
               bohr::ContractViolation);
  const Dimension ok("d", {{"base", 1}, {"month", 30}, {"year", 365}});
  EXPECT_EQ(ok.level_count(), 3u);
  EXPECT_EQ(ok.coarsen(400, 2), 1u);
}

TEST(DimensionTest, HashedCoarsenBuckets) {
  const Dimension d("h", {{"base", 1}, {"bucket", 16}}, /*hashed=*/true);
  EXPECT_EQ(d.coarsen(35, 1), 35u % 16u);
}

}  // namespace
}  // namespace bohr::olap
