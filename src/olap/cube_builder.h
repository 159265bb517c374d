// Builds OLAP cubes from schema-typed rows (§4.1 "data formatting").
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "olap/cube.h"
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

  /// Cell coordinates for a row (base hierarchy level for every dim).
  CellCoords coords_for(const Row& row) const;

  /// Measure value for a row (1.0 when the spec has no measure).
  double measure_for(const Row& row) const;

  /// Builds a fresh cube over all rows.
  OlapCube build(std::span<const Row> rows) const;

  /// Creates an empty cube with this spec's dimensions.
  OlapCube empty_cube() const;

 private:
  CubeSpec spec_;
};

}  // namespace bohr::olap
