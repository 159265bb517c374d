#include "olap/cube_columns.h"

#include "common/phase_timer.h"

namespace bohr::olap {

CubeColumns::CubeColumns(const OlapCube& cube)
    : num_rows_(cube.cell_count()),
      num_dims_(cube.dimension_count()) {
  ScopedPhase phase("cube.columns_build");
  // Rows in canonical order: everything downstream (top-cell ranking,
  // query folds) inherits it.
  const auto entries = cube.sorted_cells();

  members_.resize(num_dims_ * num_rows_);
  row_coords_.resize(num_dims_ * num_rows_);
  counts_.resize(num_rows_);
  sums_.resize(num_rows_);
  mins_.resize(num_rows_);
  maxs_.resize(num_rows_);
  for (std::size_t row = 0; row < num_rows_; ++row) {
    const auto& e = *entries[row];
    for (std::size_t d = 0; d < num_dims_; ++d) {
      members_[d * num_rows_ + row] = e.first[d];
      row_coords_[row * num_dims_ + d] = e.first[d];
    }
    counts_[row] = e.second.count;
    sums_[row] = e.second.sum;
    mins_[row] = e.second.min;
    maxs_[row] = e.second.max;
  }

  // Point-lookup index: insert rows in canonical order into a half-full
  // open-addressing table (linear probing). No sort — O(rows) build, and
  // the layout is a pure function of the hashes and the canonical order.
  hashes_.resize(num_rows_);
  for (std::size_t row = 0; row < num_rows_; ++row) {
    hashes_[row] = CellCoordsHash{}(entries[row]->first);
  }
  std::size_t cap = 8;
  while (cap < num_rows_ * 2) cap *= 2;
  bucket_mask_ = cap - 1;
  buckets_.assign(cap, kEmptyBucket);
  for (std::size_t row = 0; row < num_rows_; ++row) {
    std::uint64_t b = hashes_[row] & bucket_mask_;
    while (buckets_[b] != kEmptyBucket) b = (b + 1) & bucket_mask_;
    buckets_[b] = static_cast<std::uint32_t>(row);
  }
}

CellCoords CubeColumns::coords_of(std::size_t row) const {
  const MemberId* packed = row_coords_.data() + row * num_dims_;
  return CellCoords(packed, packed + num_dims_);
}

}  // namespace bohr::olap
