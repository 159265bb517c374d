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

CellCoords CubeBuilder::coords_for(const RowTable& table,
                                   std::size_t row) const {
  BOHR_EXPECTS(table.attribute_count() == spec_.schema.attribute_count());
  BOHR_EXPECTS(row < table.size());
  CellCoords coords;
  for (const std::size_t idx : spec_.dim_attrs) {
    coords.push_back(table.member(idx, row));
  }
  return coords;
}

double CubeBuilder::measure_for(const RowTable& table, std::size_t row) const {
  if (!spec_.measure_attr) return 1.0;
  BOHR_EXPECTS(table.attribute_count() == spec_.schema.attribute_count());
  BOHR_EXPECTS(row < table.size());
  return table.measure(*spec_.measure_attr, row);
}

OlapCube CubeBuilder::build(const RowTable& table) const {
  OlapCube cube = empty_cube();
  // Coordinate/measure extraction is independent per row and threads; the
  // cube inserts fold serially in row order so cell creation order (and
  // the floating-point sum per cell) matches a serial build exactly.
  const std::size_t n = table.size();
  std::vector<CellCoords> coords(n);
  std::vector<double> measures(n);
  parallel_for(n, [&](std::size_t i) {
    coords[i] = coords_for(table, i);
    measures[i] = measure_for(table, i);
  });
  for (std::size_t i = 0; i < n; ++i) cube.insert(coords[i], measures[i]);
  return cube;
}

OlapCube CubeBuilder::empty_cube() const { return OlapCube(spec_.dimensions); }

}  // namespace bohr::olap
