#include "olap/cube_algebra.h"

#include <algorithm>

#include "olap/cube_columns.h"

namespace bohr::olap {

bool dims_compatible(const OlapCube& a, const OlapCube& b) {
  if (a.dimension_count() != b.dimension_count()) return false;
  for (std::size_t d = 0; d < a.dimension_count(); ++d) {
    const Dimension& da = a.dimension(d);
    const Dimension& db = b.dimension(d);
    if (da.name() != db.name() || da.is_hashed() != db.is_hashed() ||
        da.level_count() != db.level_count()) {
      return false;
    }
    for (std::size_t l = 0; l < da.level_count(); ++l) {
      if (da.level(l).granularity != db.level(l).granularity) return false;
    }
  }
  return true;
}

CubeRelation relate(const OlapCube& a, const OlapCube& b) {
  CubeRelation rel;
  if (!dims_compatible(a, b) || (a.empty() && b.empty())) return rel;
  const auto ca = a.columns();
  const auto cb = b.columns();
  const auto counts_a = ca->counts();
  const auto counts_b = cb->counts();

  // One pass over a's canonical rows accumulates min/max for every cell
  // of a (cells absent from b contribute count_a to the max sum); a
  // second pass over b adds the b-only cells. Integer accumulators keep
  // the ratio exact regardless of summation order.
  std::uint64_t sum_min = 0;
  std::uint64_t sum_max = 0;
  std::uint64_t a_in_b = 0;
  std::uint64_t b_in_a = 0;
  CellCoords coords;
  for (std::size_t row = 0; row < ca->num_rows(); ++row) {
    coords = ca->coords_of(row);
    const CellAggregate* cell = b.find(coords);
    const std::uint64_t na = counts_a[row];
    const std::uint64_t nb = cell != nullptr ? cell->count : 0;
    sum_min += std::min(na, nb);
    sum_max += std::max(na, nb);
    if (cell != nullptr) {
      a_in_b += na;
      b_in_a += nb;
    }
  }
  for (std::size_t row = 0; row < cb->num_rows(); ++row) {
    coords = cb->coords_of(row);
    if (a.find(coords) == nullptr) sum_max += counts_b[row];
  }

  if (a.total_records() > 0) {
    rel.containment_ab = static_cast<double>(a_in_b) /
                         static_cast<double>(a.total_records());
  }
  if (b.total_records() > 0) {
    rel.containment_ba = static_cast<double>(b_in_a) /
                         static_cast<double>(b.total_records());
  }
  if (sum_max > 0) {
    rel.overlap =
        static_cast<double>(sum_min) / static_cast<double>(sum_max);
  }
  rel.distance = 1.0 - rel.overlap;
  return rel;
}

bool covers_group_by(const std::vector<std::size_t>& cube_dims,
                     const std::vector<std::size_t>& group_by) {
  for (const std::size_t g : group_by) {
    if (std::find(cube_dims.begin(), cube_dims.end(), g) ==
        cube_dims.end()) {
      return false;
    }
  }
  return true;
}

CubeTotals cube_totals(const OlapCube& cube) {
  CubeTotals totals;
  totals.records = cube.total_records();
  const auto cols = cube.columns();
  for (const double s : cols->sums()) totals.sum += s;
  return totals;
}

}  // namespace bohr::olap
