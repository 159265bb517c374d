#include "olap/cube_algebra.h"

#include <algorithm>

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

  // One pass over a's cells accumulates min/max for every cell of a
  // (cells absent from b contribute count_a to the max sum); a second
  // pass over b adds the b-only cells. Integer accumulators keep the
  // ratio exact whatever order the cells are visited in.
  std::uint64_t sum_min = 0;
  std::uint64_t sum_max = 0;
  std::uint64_t a_in_b = 0;
  std::uint64_t b_in_a = 0;
  for (const Cell* cell : a.sorted_cells()) {
    const CellAggregate* other = b.find(cell->coords);
    const std::uint64_t na = cell->agg.count;
    const std::uint64_t nb = other != nullptr ? other->count : 0;
    sum_min += std::min(na, nb);
    sum_max += std::max(na, nb);
    if (other != nullptr) {
      a_in_b += na;
      b_in_a += nb;
    }
  }
  for (const Cell* cell : b.sorted_cells()) {
    if (a.find(cell->coords) == nullptr) sum_max += cell->agg.count;
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
  for (const Cell* cell : cube.sorted_cells()) totals.sum += cell->agg.sum;
  return totals;
}

}  // namespace bohr::olap
