#include "olap/cube_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/phase_timer.h"

namespace bohr::olap {

DatasetCubes::DatasetCubes(CubeBuilder builder)
    : builder_(std::move(builder)), base_(builder_.empty_cube()) {}

QueryTypeId DatasetCubes::register_query_type(
    std::vector<std::size_t> dim_positions) {
  BOHR_EXPECTS(!dim_positions.empty());
  std::sort(dim_positions.begin(), dim_positions.end());
  dim_positions.erase(
      std::unique(dim_positions.begin(), dim_positions.end()),
      dim_positions.end());
  for (const std::size_t p : dim_positions) {
    BOHR_EXPECTS(p < builder_.spec().dimensions.size());
  }
  for (QueryTypeId qt = 0; qt < types_.size(); ++qt) {
    if (types_[qt].dim_positions == dim_positions) return qt;
  }
  TypeEntry entry;
  entry.dim_positions = dim_positions;
  entry.cube = base_.project(dim_positions);
  types_.push_back(std::move(entry));
  return types_.size() - 1;
}

const std::vector<std::size_t>& DatasetCubes::query_type_dims(
    QueryTypeId qt) const {
  BOHR_EXPECTS(qt < types_.size());
  return types_[qt].dim_positions;
}

void DatasetCubes::add_rows(std::span<const Row> rows) {
  ScopedPhase phase("cube.add_rows");
  // Coordinates and measures are extracted once, then each cube folds
  // them in row order; dimension cubes project inside insert_rows, so no
  // projected coordinates are materialized. Set-up parallelizes one level
  // up, with one job per site or dataset (DESIGN §10).
  std::vector<CellCoords> full;
  std::vector<double> measure;
  full.reserve(rows.size());
  measure.reserve(rows.size());
  for (const Row& row : rows) {
    full.push_back(builder_.coords_for(row));
    measure.push_back(builder_.measure_for(row));
  }
  base_.insert_rows(full, measure);
  for (TypeEntry& entry : types_) {
    entry.cube.insert_rows(full, measure, entry.dim_positions);
  }
}

const OlapCube& DatasetCubes::dimension_cube(QueryTypeId qt) const {
  BOHR_EXPECTS(qt < types_.size());
  return types_[qt].cube;
}

}  // namespace bohr::olap
