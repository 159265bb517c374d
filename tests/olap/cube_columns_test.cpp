// CubeColumns — the columnar snapshot the similarity hot paths stream —
// and the bulk insert that feeds it. The properties that matter:
// canonical row order independent of insertion history, lookups agreeing
// with the map, top-cell ranking identical to the historical full-sort,
// insert_rows bit-identical to serial insert() at any thread count, and
// cache invalidation on every mutation.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "olap/cube.h"
#include "olap/cube_columns.h"

namespace bohr::olap {
namespace {

OlapCube three_dim_cube() {
  return OlapCube(
      {Dimension("a"), Dimension("b"), Dimension("c")});
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

TEST(CubeColumnsTest, RowsAreInCanonicalCoordinateOrder) {
  // Two cubes with the same cells inserted in different orders must
  // snapshot to identical columns.
  OlapCube forward = three_dim_cube();
  OlapCube backward = three_dim_cube();
  const auto records = random_records(0xC0FFEEu, 500);
  for (const auto& [coords, m] : records) forward.insert(coords, m);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    backward.insert(it->first, it->second);
  }
  const auto cols_f = forward.columns();
  const auto cols_b = backward.columns();
  ASSERT_EQ(cols_f->num_rows(), cols_b->num_rows());
  ASSERT_EQ(cols_f->num_rows(), forward.cell_count());
  CellCoords prev;
  for (std::size_t row = 0; row < cols_f->num_rows(); ++row) {
    const CellCoords coords = cols_f->coords_of(row);
    EXPECT_EQ(coords, cols_b->coords_of(row));
    if (row > 0) {
      EXPECT_LT(prev, coords);  // strictly ascending
    }
    prev = coords;
    // Counts are insertion-order independent.
    EXPECT_EQ(cols_f->counts()[row], cols_b->counts()[row]);
  }
}

TEST(CubeColumnsTest, LookupsAgreeWithTheMap) {
  OlapCube cube = three_dim_cube();
  for (const auto& [coords, m] : random_records(0xF1D0u, 300)) {
    cube.insert(coords, m);
  }
  const auto cols = cube.columns();
  // Every present cell is found with matching aggregates.
  for (const auto* cell : cube.sorted_cells()) {
    const auto& [coords, agg] = *cell;
    const std::size_t row =
        cols->find_hashed(CellCoordsHash{}(coords), coords);
    ASSERT_NE(row, CubeColumns::npos);
    const CellAggregate got = cols->aggregate_of(row);
    EXPECT_EQ(got.count, agg.count);
    EXPECT_EQ(got.sum, agg.sum);
    EXPECT_EQ(got.min, agg.min);
    EXPECT_EQ(got.max, agg.max);
  }
  // Absent cells are not found.
  for (std::uint64_t probe = 100; probe < 130; ++probe) {
    const CellCoords absent{probe, probe, probe};
    EXPECT_EQ(cube.find(absent), nullptr);
    EXPECT_EQ(cols->find_hashed(CellCoordsHash{}(absent), absent),
              CubeColumns::npos);
  }
}

TEST(CubeColumnsTest, TopCellsMatchesFullSortReference) {
  OlapCube cube = three_dim_cube();
  for (const auto& [coords, m] : random_records(0x70Cu, 800)) {
    cube.insert(coords, m);
  }
  // Reference: the historical algorithm — copy every cell, full sort by
  // (count desc, coords asc).
  std::vector<Cell> reference;
  for (const auto* cell : cube.sorted_cells()) {
    reference.push_back(Cell{cell->first, cell->second});
  }
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

TEST(CubeColumnsTest, InsertRowsBitIdenticalToSerialInsert) {
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
    for (const auto* cell : serial.sorted_cells()) {
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

TEST(CubeColumnsTest, InsertRowsProjectsWithoutMaterializing) {
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
    for (const auto* cell : reference.sorted_cells()) {
      const auto& [c, agg] = *cell;
      const CellAggregate* got = projected.find(c);
      ASSERT_NE(got, nullptr) << "n=" << n;
      EXPECT_EQ(got->count, agg.count);
      EXPECT_EQ(got->sum, agg.sum);
    }
  }
}

TEST(CubeColumnsTest, SnapshotInvalidatesOnEveryMutation) {
  OlapCube cube = three_dim_cube();
  cube.insert({1, 2, 3}, 1.0);
  const auto before = cube.columns();
  EXPECT_EQ(before->num_rows(), 1u);

  cube.insert({4, 5, 6}, 2.0);
  EXPECT_EQ(cube.columns()->num_rows(), 2u);

  OlapCube other = three_dim_cube();
  other.insert({10, 11, 12}, 4.0);
  cube.merge(other);
  EXPECT_EQ(cube.columns()->num_rows(), 3u);

  cube.insert_rows(std::vector<CellCoords>{{13, 14, 15}},
                   std::vector<double>{5.0});
  EXPECT_EQ(cube.columns()->num_rows(), 4u);

  // The old snapshot is unaffected (shared_ptr keeps it alive).
  EXPECT_EQ(before->num_rows(), 1u);
}

TEST(CubeColumnsTest, CopyAndMoveCarryCellsAndSnapshot) {
  OlapCube cube = three_dim_cube();
  for (const auto& [c, m] : random_records(0xC09Eu, 200)) cube.insert(c, m);
  const auto snap = cube.columns();

  OlapCube copied(cube);
  EXPECT_EQ(copied.cell_count(), cube.cell_count());
  EXPECT_EQ(copied.total_records(), cube.total_records());
  EXPECT_EQ(copied.columns().get(), snap.get());  // snapshot shared

  // Mutating the copy must not disturb the original's snapshot.
  copied.insert({99, 99, 99}, 1.0);
  EXPECT_EQ(copied.columns()->num_rows(), cube.cell_count() + 1);
  EXPECT_EQ(cube.columns().get(), snap.get());

  OlapCube moved(std::move(copied));
  EXPECT_EQ(moved.cell_count(), cube.cell_count() + 1);
  OlapCube assigned = three_dim_cube();
  assigned = std::move(moved);
  EXPECT_EQ(assigned.cell_count(), cube.cell_count() + 1);
  EXPECT_EQ(assigned.total_records(), cube.total_records() + 1);
}

}  // namespace
}  // namespace bohr::olap
