#include "olap/cube.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "olap/cube_columns.h"

namespace bohr::olap {

void CellAggregate::add(double measure, std::uint64_t times) {
  if (count == 0) {
    min = measure;
    max = measure;
  } else {
    min = std::min(min, measure);
    max = std::max(max, measure);
  }
  count += times;
  sum += measure * static_cast<double>(times);
}

void CellAggregate::merge(const CellAggregate& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

OlapCube::OlapCube(std::vector<Dimension> dimensions)
    : dims_(std::move(dimensions)) {
  BOHR_EXPECTS(!dims_.empty());
  BOHR_EXPECTS(dims_.size() <= kMaxCubeDims);
}

OlapCube::OlapCube(const OlapCube& other)
    : dims_(other.dims_),
      cells_(other.cells_),
      total_records_(other.total_records_) {
  // The snapshot is an immutable view of identical cell state — share it.
  set_cached_columns(other.cached_columns());
}

OlapCube& OlapCube::operator=(const OlapCube& other) {
  if (this == &other) return *this;
  dims_ = other.dims_;
  cells_ = other.cells_;
  total_records_ = other.total_records_;
  set_cached_columns(other.cached_columns());
  return *this;
}

OlapCube::OlapCube(OlapCube&& other) noexcept
    : dims_(std::move(other.dims_)),
      cells_(std::move(other.cells_)),
      total_records_(other.total_records_) {
  set_cached_columns(other.cached_columns());
  other.total_records_ = 0;
  other.set_cached_columns(nullptr);
}

OlapCube& OlapCube::operator=(OlapCube&& other) noexcept {
  if (this == &other) return *this;
  dims_ = std::move(other.dims_);
  cells_ = std::move(other.cells_);
  total_records_ = other.total_records_;
  set_cached_columns(other.cached_columns());
  other.total_records_ = 0;
  other.set_cached_columns(nullptr);
  return *this;
}

const Dimension& OlapCube::dimension(std::size_t idx) const {
  BOHR_EXPECTS(idx < dims_.size());
  return dims_[idx];
}

void OlapCube::insert(const CellCoords& coords, double measure) {
  BOHR_EXPECTS(coords.size() == dims_.size());
  cells_[coords].add(measure);
  ++total_records_;
  invalidate_columns();
}

void OlapCube::insert_aggregate(const CellCoords& coords,
                                const CellAggregate& agg) {
  BOHR_EXPECTS(coords.size() == dims_.size());
  cells_[coords].merge(agg);
  total_records_ += agg.count;
  invalidate_columns();
}

void OlapCube::merge(const OlapCube& other) {
  BOHR_EXPECTS(other.dims_.size() == dims_.size());
  cells_.reserve(cells_.size() + other.cells_.size());
  for (const auto& [coords, agg] : other.cells_) cells_[coords].merge(agg);
  total_records_ += other.total_records_;
  invalidate_columns();
}

void OlapCube::insert_rows(std::span<const CellCoords> coords,
                           std::span<const double> measures,
                           std::span<const std::size_t> project) {
  BOHR_EXPECTS(coords.size() == measures.size());
  const std::size_t cell_dims =
      project.empty() ? dims_.size() : project.size();
  BOHR_EXPECTS(cell_dims == dims_.size());
  const std::size_t n = coords.size();
  if (n == 0) return;
  if (!project.empty()) {
    for (const std::size_t p : project) {
      BOHR_EXPECTS(p < coords.front().size());
    }
  }
  cells_.reserve(cells_.size() + n);
  CellCoords cell(cell_dims);
  for (std::size_t i = 0; i < n; ++i) {
    if (project.empty()) {
      BOHR_EXPECTS(coords[i].size() == dims_.size());
      cells_[coords[i]].add(measures[i]);
    } else {
      for (std::size_t k = 0; k < cell_dims; ++k) {
        cell[k] = coords[i][project[k]];
      }
      cells_[cell].add(measures[i]);
    }
  }
  total_records_ += n;
  invalidate_columns();
}

const CellAggregate* OlapCube::find(const CellCoords& coords) const {
  const auto it = cells_.find(coords);
  return it == cells_.end() ? nullptr : &it->second;
}

OlapCube OlapCube::slice(std::size_t dim, MemberId member) const {
  BOHR_EXPECTS(dim < dims_.size());
  BOHR_EXPECTS(dims_.size() > 1);  // slicing the last dimension is undefined
  std::vector<Dimension> new_dims;
  new_dims.reserve(dims_.size() - 1);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (d != dim) new_dims.push_back(dims_[d]);
  }
  OlapCube out(std::move(new_dims));
  for (const auto& [coords, agg] : cells_) {
    if (coords[dim] != member) continue;
    CellCoords reduced;
    for (std::size_t d = 0; d < coords.size(); ++d) {
      if (d != dim) reduced.push_back(coords[d]);
    }
    out.cells_[std::move(reduced)].merge(agg);
    out.total_records_ += agg.count;
  }
  return out;
}

OlapCube OlapCube::dice(std::size_t dim,
                        const std::unordered_set<MemberId>& members) const {
  BOHR_EXPECTS(dim < dims_.size());
  OlapCube out(dims_);
  for (const auto& [coords, agg] : cells_) {
    if (!members.contains(coords[dim])) continue;
    out.cells_[coords] = agg;
    out.total_records_ += agg.count;
  }
  return out;
}

OlapCube OlapCube::roll_up(std::size_t dim, std::size_t level) const {
  BOHR_EXPECTS(dim < dims_.size());
  OlapCube out(dims_);
  for (const auto& [coords, agg] : cells_) {
    CellCoords coarse = coords;
    coarse[dim] = dims_[dim].coarsen(coords[dim], level);
    out.cells_[std::move(coarse)].merge(agg);
  }
  out.total_records_ = total_records_;
  return out;
}

OlapCube OlapCube::pivot(const std::vector<std::size_t>& order) const {
  BOHR_EXPECTS(order.size() == dims_.size());
  std::vector<bool> seen(dims_.size(), false);
  for (const std::size_t d : order) {
    BOHR_EXPECTS(d < dims_.size());
    BOHR_EXPECTS(!seen[d]);
    seen[d] = true;
  }
  std::vector<Dimension> new_dims;
  new_dims.reserve(dims_.size());
  for (const std::size_t d : order) new_dims.push_back(dims_[d]);
  OlapCube out(std::move(new_dims));
  for (const auto& [coords, agg] : cells_) {
    CellCoords permuted(coords.size());
    for (std::size_t d = 0; d < order.size(); ++d) permuted[d] = coords[order[d]];
    out.cells_[std::move(permuted)] = agg;
  }
  out.total_records_ = total_records_;
  return out;
}

OlapCube OlapCube::project(const std::vector<std::size_t>& dims) const {
  BOHR_EXPECTS(!dims.empty());
  std::vector<Dimension> new_dims;
  new_dims.reserve(dims.size());
  for (const std::size_t d : dims) {
    BOHR_EXPECTS(d < dims_.size());
    new_dims.push_back(dims_[d]);
  }
  OlapCube out(std::move(new_dims));
  for (const auto* cell : sorted_cells()) {
    CellCoords projected;
    for (const std::size_t d : dims) projected.push_back(cell->first[d]);
    out.cells_[std::move(projected)].merge(cell->second);
  }
  out.total_records_ = total_records_;
  return out;
}

std::vector<const std::pair<const CellCoords, CellAggregate>*>
OlapCube::sorted_cells() const {
  std::vector<const std::pair<const CellCoords, CellAggregate>*> out;
  out.reserve(cells_.size());
  for (const auto& cell : cells_) out.push_back(&cell);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

std::shared_ptr<const CubeColumns> OlapCube::columns() const {
  if (auto snap = cached_columns()) return snap;
  // Build outside the lock; if a concurrent reader installed first, its
  // equivalent snapshot wins and this one is dropped.
  auto built = std::make_shared<const CubeColumns>(*this);
  std::lock_guard lock(columns_mu_);
  if (!columns_cache_) {
    columns_cache_ = std::move(built);
    columns_valid_.store(true, std::memory_order_relaxed);
  }
  return columns_cache_;
}

std::vector<Cell> OlapCube::top_cells(std::size_t k) const {
  // Rank row indices over the columnar snapshot and materialize only the
  // winners — the old path copied every cell (one vector allocation per
  // cell) just to sort and throw most of them away. Rows are in
  // ascending-coordinate order, so the row-index tie-break reproduces
  // the historical coordinate tie-break exactly.
  const auto cols = columns();
  const std::size_t n = cols->num_rows();
  const std::span<const std::uint64_t> counts = cols->counts();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto by_count_desc = [&](std::uint32_t a, std::uint32_t b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  };
  if (k > 0 && k < n) {
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), by_count_desc);
    order.resize(k);
  } else {
    std::sort(order.begin(), order.end(), by_count_desc);
  }
  std::vector<Cell> out;
  out.reserve(order.size());
  for (const std::uint32_t row : order) {
    out.push_back(Cell{cols->coords_of(row), cols->aggregate_of(row)});
  }
  return out;
}

double OlapCube::combine_effectiveness() const {
  if (total_records_ == 0) return 0.0;
  return 1.0 - static_cast<double>(cells_.size()) /
                   static_cast<double>(total_records_);
}

}  // namespace bohr::olap
