#include "olap/cube_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/phase_timer.h"

namespace bohr::olap {

DatasetCubes::DatasetCubes(CubeBuilder builder)
    : builder_(std::move(builder)), base_(builder_.empty_cube()) {}

QueryTypeId DatasetCubes::register_query_type(
    std::vector<std::size_t> dim_positions) {
  BOHR_EXPECTS(!dim_positions.empty());
  std::sort(dim_positions.begin(), dim_positions.end());
  dim_positions.erase(
      std::unique(dim_positions.begin(), dim_positions.end()),
      dim_positions.end());
  for (const std::size_t p : dim_positions) {
    BOHR_EXPECTS(p < builder_.spec().dimensions.size());
  }
  for (QueryTypeId qt = 0; qt < types_.size(); ++qt) {
    if (types_[qt].dim_positions == dim_positions) return qt;
  }
  TypeEntry entry;
  entry.dim_positions = dim_positions;
  entry.cube = base_.project(dim_positions);
  entry.applied = base_applied_;  // derived from base = caught up with base
  types_.push_back(std::move(entry));
  return types_.size() - 1;
}

const std::vector<std::size_t>& DatasetCubes::query_type_dims(
    QueryTypeId qt) const {
  BOHR_EXPECTS(qt < types_.size());
  return types_[qt].dim_positions;
}

void DatasetCubes::apply_row_to_type(TypeEntry& entry, const Row& row) const {
  const CellCoords full = builder_.coords_for(row);
  CellCoords projected;
  projected.reserve(entry.dim_positions.size());
  for (const std::size_t p : entry.dim_positions) projected.push_back(full[p]);
  entry.cube.insert(projected, builder_.measure_for(row));
}

void DatasetCubes::add_rows(std::span<const Row> rows) {
  ScopedPhase phase("cube.add_rows");
  // Extract coordinates/measures once for all rows (threaded, independent
  // per row — this also stops each dimension cube from re-deriving the
  // full coordinates per type). Each cube then ingests via the sharded
  // bulk path: insert_rows partitions cells by hash into fixed shards
  // and aggregates each shard lock-free, with a deterministic merge, so
  // the base cube's build parallelizes instead of folding serially. The
  // dimension cubes project inside insert_rows (no materialized
  // projected coordinates) and ingest concurrently with one another.
  const std::size_t n = rows.size();
  std::vector<CellCoords> full(n);
  std::vector<double> measure(n);
  parallel_for(n, [&](std::size_t i) {
    full[i] = builder_.coords_for(rows[i]);
    measure[i] = builder_.measure_for(rows[i]);
  });
  base_.insert_rows(full, measure);
  parallel_for(types_.size(), [&](std::size_t ty) {
    types_[ty].cube.insert_rows(full, measure, types_[ty].dim_positions);
  });
}

void DatasetCubes::buffer_rows(std::span<const Row> rows) {
  buffer_.insert(buffer_.end(), rows.begin(), rows.end());
}

std::size_t DatasetCubes::buffered_count() const {
  return buffer_.size() - base_applied_;
}

void DatasetCubes::flush_for(QueryTypeId qt) {
  BOHR_EXPECTS(qt < types_.size());
  for (std::size_t i = base_applied_; i < buffer_.size(); ++i) {
    builder_.insert(base_, buffer_[i]);
  }
  base_applied_ = buffer_.size();
  TypeEntry& entry = types_[qt];
  for (std::size_t i = entry.applied; i < buffer_.size(); ++i) {
    apply_row_to_type(entry, buffer_[i]);
  }
  entry.applied = buffer_.size();
}

void DatasetCubes::flush_background() {
  ScopedPhase phase("cube.flush");
  for (std::size_t i = base_applied_; i < buffer_.size(); ++i) {
    builder_.insert(base_, buffer_[i]);
  }
  base_applied_ = buffer_.size();
  // Each dimension cube catches up from its own watermark and touches
  // only its own state, so the entries flush concurrently.
  parallel_for(types_.size(), [&](std::size_t ty) {
    TypeEntry& entry = types_[ty];
    for (std::size_t i = entry.applied; i < buffer_.size(); ++i) {
      apply_row_to_type(entry, buffer_[i]);
    }
    entry.applied = 0;  // buffer is about to be cleared
  });
  buffer_.clear();
  base_applied_ = 0;
}

const OlapCube& DatasetCubes::dimension_cube(QueryTypeId qt) const {
  BOHR_EXPECTS(qt < types_.size());
  return types_[qt].cube;
}

void DatasetCubes::restore_base(OlapCube base) {
  BOHR_EXPECTS(base.dimension_count() == builder_.spec().dimensions.size());
  base_ = std::move(base);
  base_applied_ = 0;
  buffer_.clear();
  for (auto& entry : types_) {
    entry.cube = base_.project(entry.dim_positions);
    entry.applied = 0;
  }
}

}  // namespace bohr::olap
