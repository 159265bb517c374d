#include "olap/cube.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

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

const Dimension& OlapCube::dimension(std::size_t idx) const {
  BOHR_EXPECTS(idx < dims_.size());
  return dims_[idx];
}

void OlapCube::insert(const CellCoords& coords, double measure) {
  BOHR_EXPECTS(coords.size() == dims_.size());
  cell_at(coords).add(measure);
  ++total_records_;
}

void OlapCube::merge(const OlapCube& other) {
  // Walking cells_ while appending to it would read freed memory once
  // the array grows.
  BOHR_EXPECTS(&other != this);
  BOHR_EXPECTS(other.dims_.size() == dims_.size());
  for (const Cell& cell : other.cells_) cell_at(cell.coords).merge(cell.agg);
  total_records_ += other.total_records_;
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
  CellCoords cell(cell_dims);
  for (std::size_t i = 0; i < n; ++i) {
    if (project.empty()) {
      BOHR_EXPECTS(coords[i].size() == dims_.size());
      cell_at(coords[i]).add(measures[i]);
    } else {
      for (std::size_t k = 0; k < cell_dims; ++k) {
        cell[k] = coords[i][project[k]];
      }
      cell_at(cell).add(measures[i]);
    }
  }
  total_records_ += n;
}

const CellAggregate* OlapCube::find(const CellCoords& coords) const {
  if (cells_.empty()) return nullptr;
  const std::uint32_t pos = slots_[slot_of(CellCoordsHash{}(coords), coords)];
  return pos == kEmptySlot ? nullptr : &cells_[pos].agg;
}

std::size_t OlapCube::slot_of(std::uint64_t hash,
                              const CellCoords& coords) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  for (; slots_[slot] != kEmptySlot; slot = (slot + 1) & mask) {
    const std::uint32_t pos = slots_[slot];
    if (hashes_[pos] == hash && cells_[pos].coords == coords) break;
  }
  return slot;
}

CellAggregate& OlapCube::cell_at(const CellCoords& coords) {
  const std::uint64_t hash = CellCoordsHash{}(coords);
  if (slots_.empty()) grow_index();
  std::size_t slot = slot_of(hash, coords);
  if (slots_[slot] == kEmptySlot) {
    // A new cell. The index grows with the cells, never with the rows.
    if (2 * (cells_.size() + 1) > slots_.size()) {
      grow_index();
      slot = slot_of(hash, coords);
    }
    slots_[slot] = static_cast<std::uint32_t>(cells_.size());
    cells_.push_back(Cell{coords, CellAggregate{}});
    hashes_.push_back(hash);
  }
  return cells_[slots_[slot]].agg;
}

void OlapCube::grow_index() {
  BOHR_EXPECTS(cells_.size() < kEmptySlot / 2);
  slots_.assign(std::max<std::size_t>(8, 2 * slots_.size()), kEmptySlot);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
    std::size_t slot = hashes_[pos] & mask;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(pos);
  }
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
  for (const Cell* cell : sorted_cells()) {
    const auto& [coords, agg] = *cell;
    if (coords[dim] != member) continue;
    CellCoords reduced;
    for (std::size_t d = 0; d < coords.size(); ++d) {
      if (d != dim) reduced.push_back(coords[d]);
    }
    out.cell_at(reduced).merge(agg);
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
    out.cell_at(coords) = agg;
    out.total_records_ += agg.count;
  }
  return out;
}

OlapCube OlapCube::roll_up(std::size_t dim, std::size_t level) const {
  BOHR_EXPECTS(dim < dims_.size());
  OlapCube out(dims_);
  for (const Cell* cell : sorted_cells()) {
    CellCoords coarse = cell->coords;
    coarse[dim] = dims_[dim].coarsen(coarse[dim], level);
    out.cell_at(coarse).merge(cell->agg);
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
    out.cell_at(permuted) = agg;
  }
  out.total_records_ = total_records_;
  return out;
}

OlapCube OlapCube::project(const std::vector<std::size_t>& dims) const {
  return std::move(project_each({dims}).front());
}

std::vector<OlapCube> OlapCube::project_each(
    const std::vector<std::vector<std::size_t>>& dim_sets) const {
  const auto sorted = sorted_cells();
  std::vector<OlapCube> outs;
  outs.reserve(dim_sets.size());
  for (const std::vector<std::size_t>& dims : dim_sets) {
    BOHR_EXPECTS(!dims.empty());
    std::vector<Dimension> new_dims;
    new_dims.reserve(dims.size());
    for (const std::size_t d : dims) {
      BOHR_EXPECTS(d < dims_.size());
      new_dims.push_back(dims_[d]);
    }
    OlapCube& out = outs.emplace_back(std::move(new_dims));
    for (const Cell* cell : sorted) {
      CellCoords projected;
      for (const std::size_t d : dims) projected.push_back(cell->coords[d]);
      out.cell_at(projected).merge(cell->agg);
    }
    out.total_records_ = total_records_;
  }
  return outs;
}

std::vector<const Cell*> OlapCube::sorted_cells() const {
  std::vector<const Cell*> out;
  out.reserve(cells_.size());
  for (const Cell& cell : cells_) out.push_back(&cell);
  std::sort(out.begin(), out.end(), [](const Cell* a, const Cell* b) {
    return a->coords < b->coords;
  });
  return out;
}

std::vector<Cell> OlapCube::top_cells(std::size_t k) const {
  // Rank pointers into the table and copy out only the winners.
  // Coordinates are unique, so (count desc, coords asc) is a total order.
  std::vector<const Cell*> order;
  order.reserve(cells_.size());
  for (const Cell& cell : cells_) order.push_back(&cell);
  const auto by_count_desc = [](const Cell* a, const Cell* b) {
    if (a->agg.count != b->agg.count) return a->agg.count > b->agg.count;
    return a->coords < b->coords;
  };
  if (k > 0 && k < order.size()) {
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), by_count_desc);
    order.resize(k);
  } else {
    std::sort(order.begin(), order.end(), by_count_desc);
  }
  std::vector<Cell> out;
  out.reserve(order.size());
  for (const Cell* cell : order) out.push_back(*cell);
  return out;
}

double OlapCube::combine_effectiveness() const {
  if (total_records_ == 0) return 0.0;
  return 1.0 - static_cast<double>(cells_.size()) /
                   static_cast<double>(total_records_);
}

}  // namespace bohr::olap
