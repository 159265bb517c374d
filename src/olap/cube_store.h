// Per-site, per-dataset cube storage with query-type dimension cubes and
// the buffering protocol of §4.1: new rows arriving during query execution
// are buffered; the dimension cube the next query needs is brought up to
// date first, and the remaining cubes catch up in the background.
#pragma once

#include <cstddef>
#include <span>
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

  /// Appends rows immediately (base cube and every dimension cube).
  /// Builds no columnar snapshot; each cube builds its own on first read.
  void add_rows(std::span<const Row> rows);

  /// Buffers rows without touching any cube (used while a query runs).
  void buffer_rows(std::span<const Row> rows);
  std::size_t buffered_count() const;

  /// Applies buffered rows to the base cube and to the dimension cube of
  /// `qt` only (the cube the imminent query needs, §4.1).
  void flush_for(QueryTypeId qt);

  /// Applies any remaining buffered rows to all lagging dimension cubes
  /// and clears the buffer.
  void flush_background();

  const OlapCube& base_cube() const { return base_; }
  const OlapCube& dimension_cube(QueryTypeId qt) const;

  /// Checkpoint recovery: installs a deserialized base cube, re-derives
  /// every registered dimension cube from it, and clears the buffer.
  /// The cube's dimensionality must match the builder spec.
  void restore_base(OlapCube base);

 private:
  struct TypeEntry {
    std::vector<std::size_t> dim_positions;
    OlapCube cube;
    std::size_t applied = 0;  // rows of buffer_ already applied
  };

  void apply_row_to_type(TypeEntry& entry, const Row& row) const;

  CubeBuilder builder_;
  OlapCube base_;
  std::size_t base_applied_ = 0;
  std::vector<TypeEntry> types_;
  std::vector<Row> buffer_;
};

}  // namespace bohr::olap
