#include "olap/cube_query.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace bohr::olap {

namespace {

struct GroupAggregate {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void merge(const CellAggregate& cell) {
    if (count == 0) {
      min = cell.min;
      max = cell.max;
    } else {
      min = std::min(min, cell.min);
      max = std::max(max, cell.max);
    }
    count += cell.count;
    sum += cell.sum;
  }

  double select(CubeAggregate agg) const {
    switch (agg) {
      case CubeAggregate::Count:
        return static_cast<double>(count);
      case CubeAggregate::Sum:
        return sum;
      case CubeAggregate::Avg:
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
      case CubeAggregate::Min:
        return min;
      case CubeAggregate::Max:
        return max;
    }
    return 0.0;
  }
};

}  // namespace

std::vector<CubeQueryRow> execute(const OlapCube& cube,
                                  const CubeQuery& query) {
  BOHR_EXPECTS(!query.group_by.empty());
  std::vector<bool> seen(cube.dimension_count(), false);
  for (const std::size_t d : query.group_by) {
    BOHR_EXPECTS(d < cube.dimension_count());
    BOHR_EXPECTS(!seen[d]);
    seen[d] = true;
  }
  for (const auto& f : query.filters) {
    BOHR_EXPECTS(f.dim < cube.dimension_count());
  }
  if (!query.group_levels.empty()) {
    BOHR_EXPECTS(query.group_levels.size() == query.group_by.size());
    for (std::size_t g = 0; g < query.group_by.size(); ++g) {
      BOHR_EXPECTS(query.group_levels[g] <
                   cube.dimension(query.group_by[g]).level_count());
    }
  }

  // Filter -> group -> aggregate over the cells in coordinate order, so
  // the serial aggregate fold accumulates each group's floating-point
  // sums in the same sequence at every thread count.
  const auto cells = cube.sorted_cells();
  const std::size_t n = cells.size();
  std::vector<char> keep_of(n, 0);
  std::vector<CellCoords> group_of(n);
  parallel_for(n, [&](std::size_t c) {
    const CellCoords& coords = cells[c]->coords;
    for (const auto& f : query.filters) {
      if (!f.members.contains(coords[f.dim])) return;
    }
    CellCoords group;
    for (std::size_t g = 0; g < query.group_by.size(); ++g) {
      const std::size_t d = query.group_by[g];
      const std::size_t level =
          query.group_levels.empty() ? 0 : query.group_levels[g];
      group.push_back(cube.dimension(d).coarsen(coords[d], level));
    }
    group_of[c] = std::move(group);
    keep_of[c] = 1;
  });
  std::unordered_map<CellCoords, GroupAggregate, CellCoordsHash> groups;
  for (std::size_t c = 0; c < n; ++c) {
    if (!keep_of[c]) continue;
    groups[std::move(group_of[c])].merge(cells[c]->agg);
  }

  std::vector<CubeQueryRow> rows;
  rows.reserve(groups.size());
  for (const auto& [group, agg] : groups) {
    if (agg.count < query.having_min_count) continue;
    rows.push_back(CubeQueryRow{group, agg.select(query.aggregate),
                                agg.count});
  }
  std::sort(rows.begin(), rows.end(), [&](const CubeQueryRow& a,
                                          const CubeQueryRow& b) {
    if (a.value != b.value) {
      return query.descending ? a.value > b.value : a.value < b.value;
    }
    return a.group < b.group;
  });
  if (query.top_k > 0 && rows.size() > query.top_k) rows.resize(query.top_k);
  return rows;
}

}  // namespace bohr::olap
