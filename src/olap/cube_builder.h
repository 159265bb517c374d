// Builds OLAP cubes from schema-typed row columns (§4.1 "data
// formatting").
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "olap/cube.h"
#include "olap/row_table.h"
#include "olap/schema.h"

namespace bohr::olap {

/// How a dataset's rows map into a cube: which attributes become
/// dimensions (with what hierarchies) and which single attribute is the
/// measure (absent = count-only, measure 1.0 per record).
struct CubeSpec {
  Schema schema;
  std::vector<std::size_t> dim_attrs;   // row indices of dimension attrs
  std::vector<Dimension> dimensions;    // aligned with dim_attrs
  std::optional<std::size_t> measure_attr;
};

class CubeBuilder {
 public:
  /// The spec needs at least one and at most kMaxCubeDims dimensions.
  explicit CubeBuilder(CubeSpec spec);

  const CubeSpec& spec() const { return spec_; }

  /// Cell coordinates for row `row` of `table`, a table over this spec's
  /// schema (base hierarchy level for every dim). Reads only the
  /// dimension columns.
  CellCoords coords_for(const RowTable& table, std::size_t row) const;

  /// Measure value for row `row` of `table` (1.0 when the spec has no
  /// measure).
  double measure_for(const RowTable& table, std::size_t row) const;

  /// Builds a fresh cube over all rows of `table`, folded in row order.
  OlapCube build(const RowTable& table) const;

  /// Creates an empty cube with this spec's dimensions.
  OlapCube empty_cube() const;

 private:
  CubeSpec spec_;
};

}  // namespace bohr::olap
