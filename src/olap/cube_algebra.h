// Cube algebra: containment / overlap / distance between cubes, after
// Vassiliadis's formal cube model. The degradation ladder uses these
// relations to decide when one dataset's surviving dimension cube can
// stand in for another dataset's unreachable one: the candidate must be
// dimension-compatible, its coverage must contain the query's group-by,
// and the record-weighted overlap bounds how wrong the substituted
// aggregates can be.
#pragma once

#include <cstdint>
#include <vector>

#include "olap/cube.h"

namespace bohr::olap {

/// Record-weighted relations between two dimension-compatible cubes.
/// All fields are in [0, 1] and deterministic (canonical-order sums).
struct CubeRelation {
  /// Fraction of a's records living in cells that b also populates.
  /// containment(a, b) == 1 means b's support covers all of a's mass.
  double containment_ab = 0.0;
  double containment_ba = 0.0;
  /// Weighted Jaccard over the cell -> record-count histograms:
  /// sum(min(ca, cb)) / sum(max(ca, cb)). 1 = identical histograms.
  double overlap = 0.0;
  /// 1 - overlap; a metric on normalized cell histograms.
  double distance = 1.0;
};

/// Whether two cubes agree on dimensionality: same dimension count and,
/// position by position, the same member space (name, hashing mode, and
/// hierarchy granularities). Only compatible cubes can be related or
/// substituted — member ids are meaningless across incompatible spaces.
bool dims_compatible(const OlapCube& a, const OlapCube& b);

/// Full relation between two cubes. Incompatible or empty pairs yield
/// the zero relation (distance 1). Its sums are integers, so results
/// are bit-stable across runs and thread counts.
CubeRelation relate(const OlapCube& a, const OlapCube& b);

/// Dimension-coverage test: a cube materialized over attribute positions
/// `cube_dims` can answer a group-by over `group_by` iff every group-by
/// position is present in the cube (roll-up only drops information).
/// Positions index the owning dataset's dimension list; order is free.
bool covers_group_by(const std::vector<std::size_t>& cube_dims,
                     const std::vector<std::size_t>& group_by);

/// Grand totals of a cube — the value plane a substitution rescales.
/// Invariant under project(): projection merges cells, never records.
/// The sum folds in sorted_cells() order, so equal cubes give equal bits.
struct CubeTotals {
  std::uint64_t records = 0;
  double sum = 0.0;
};
CubeTotals cube_totals(const OlapCube& cube);

}  // namespace bohr::olap
