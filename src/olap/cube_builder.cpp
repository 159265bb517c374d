#include "olap/cube_builder.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace bohr::olap {

CubeBuilder::CubeBuilder(CubeSpec spec) : spec_(std::move(spec)) {
  BOHR_EXPECTS(!spec_.dim_attrs.empty());
  BOHR_EXPECTS(spec_.dim_attrs.size() <= kMaxCubeDims);
  BOHR_EXPECTS(spec_.dim_attrs.size() == spec_.dimensions.size());
  for (const std::size_t idx : spec_.dim_attrs) {
    BOHR_EXPECTS(idx < spec_.schema.attribute_count());
  }
  if (spec_.measure_attr) {
    BOHR_EXPECTS(*spec_.measure_attr < spec_.schema.attribute_count());
  }
}

CellCoords CubeBuilder::coords_for(const Row& row) const {
  BOHR_EXPECTS(row.size() == spec_.schema.attribute_count());
  CellCoords coords;
  for (const std::size_t idx : spec_.dim_attrs) {
    coords.push_back(value_to_member(row[idx]));
  }
  return coords;
}

double CubeBuilder::measure_for(const Row& row) const {
  if (!spec_.measure_attr) return 1.0;
  return value_to_double(row[*spec_.measure_attr]);
}

OlapCube CubeBuilder::build(std::span<const Row> rows) const {
  OlapCube cube = empty_cube();
  // Coordinate/measure extraction is independent per row and threads; the
  // cube inserts fold serially in row order so cell creation order (and
  // the floating-point sum per cell) matches a serial build exactly.
  const std::size_t n = rows.size();
  std::vector<CellCoords> coords(n);
  std::vector<double> measures(n);
  parallel_for(n, [&](std::size_t i) {
    coords[i] = coords_for(rows[i]);
    measures[i] = measure_for(rows[i]);
  });
  for (std::size_t i = 0; i < n; ++i) cube.insert(coords[i], measures[i]);
  return cube;
}

OlapCube CubeBuilder::empty_cube() const { return OlapCube(spec_.dimensions); }

}  // namespace bohr::olap
