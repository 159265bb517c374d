// Per-site, per-dataset cube storage: the base cube plus one dimension
// cube per query type (§4.1).
#pragma once

#include <cstddef>
#include <vector>

#include "olap/cube.h"
#include "olap/cube_builder.h"

namespace bohr::olap {

/// Identifier of a query type (queries accessing the same attribute
/// subset share a type, §4.1).
using QueryTypeId = std::size_t;

/// All cubes for one dataset at one site: the base cube over every
/// dimension plus one dimension cube per registered query type.
class DatasetCubes {
 public:
  explicit DatasetCubes(CubeBuilder builder);

  /// Registers a query type by the *dimension positions* (indices into the
  /// builder spec's dim list) its queries access. Returns its id.
  /// Registering the same subset twice returns the existing id.
  QueryTypeId register_query_type(std::vector<std::size_t> dim_positions);

  std::size_t query_type_count() const { return types_.size(); }
  const std::vector<std::size_t>& query_type_dims(QueryTypeId qt) const;

  /// Adds rows [begin, end) of `table` to the base cube and every
  /// dimension cube, each folded in row order.
  void add_rows(const RowTable& table, std::size_t begin, std::size_t end);

  const OlapCube& base_cube() const { return base_; }
  const OlapCube& dimension_cube(QueryTypeId qt) const;

 private:
  struct TypeEntry {
    std::vector<std::size_t> dim_positions;
    OlapCube cube;
  };

  CubeBuilder builder_;
  OlapCube base_;
  std::vector<TypeEntry> types_;
};

}  // namespace bohr::olap
