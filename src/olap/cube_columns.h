// Columnar (struct-of-arrays) snapshot of an OlapCube.
//
// The hash-map cube is the right structure for ingest — one probe per
// record — but the similarity hot paths (top-cell ranking, probe scoring,
// cube queries, effectiveness sums) iterate every cell, and pointer-chasing
// a node-based map wastes most of each cache line. CubeColumns lays the
// same cells out as contiguous columns: one MemberId column per dimension
// (all columns carved from a single arena allocation) plus one contiguous
// array per aggregate field, with rows in canonical coordinate order so
// every consumer sees the same sequence regardless of the map's insertion
// history. A flat open-addressing hash index supports point lookups with
// precomputed coordinate hashes (probe scoring) without touching the
// owning map.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "olap/cube.h"

namespace bohr::olap {

class CubeColumns {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Snapshots `cube` into columnar form. Rows are ordered by ascending
  /// cell coordinates (lexicographic) — canonical, independent of map
  /// insertion history and thread count.
  explicit CubeColumns(const OlapCube& cube);

  std::size_t num_rows() const { return num_rows_; }

  MemberId member(std::size_t row, std::size_t dim) const {
    return members_[dim * num_rows_ + row];
  }

  std::span<const std::uint64_t> counts() const { return counts_; }
  std::span<const double> sums() const { return sums_; }

  /// Row `row`'s coordinates.
  CellCoords coords_of(std::size_t row) const;

  /// Reassembles row `row`'s aggregate from the columns.
  CellAggregate aggregate_of(std::size_t row) const {
    return CellAggregate{counts_[row], sums_[row], mins_[row], maxs_[row]};
  }

  /// Point lookup with a caller-precomputed CellCoordsHash value (probe
  /// records carry their hash so scoring never re-hashes). Returns the
  /// row index or npos. Inline: this is the innermost operation of probe
  /// scoring, and the row-major coords copy keeps the verify to one
  /// contiguous read.
  std::size_t find_hashed(std::uint64_t hash,
                          const CellCoords& coords) const {
    if (coords.size() != num_dims_ || num_rows_ == 0) return npos;
    for (std::uint64_t b = hash & bucket_mask_;
         buckets_[b] != kEmptyBucket; b = (b + 1) & bucket_mask_) {
      const std::size_t row = buckets_[b];
      if (hashes_[row] != hash) continue;
      const MemberId* packed = row_coords_.data() + row * num_dims_;
      bool equal = true;
      for (std::size_t d = 0; d < num_dims_; ++d) {
        if (packed[d] != coords[d]) {
          equal = false;
          break;
        }
      }
      if (equal) return row;
    }
    return npos;
  }

 private:
  std::size_t num_rows_ = 0;
  std::size_t num_dims_ = 0;
  // Arena holding all dimension columns back to back, column-major:
  // members_[dim * num_rows_ + row].
  std::vector<MemberId> members_;
  // The same coordinates row-major — point lookups verify one contiguous
  // run instead of striding a cache line per dimension.
  std::vector<MemberId> row_coords_;
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::vector<double> mins_;
  std::vector<double> maxs_;
  // Point-lookup index: open-addressing table of row indices (linear
  // probing, power-of-two buckets, kEmptyBucket = vacant). hashes_[row]
  // fast-rejects before the column compare. Bucket layout is a pure
  // function of the canonical row order, so it is deterministic.
  static constexpr std::uint32_t kEmptyBucket =
      static_cast<std::uint32_t>(-1);
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> buckets_;
  std::uint64_t bucket_mask_ = 0;
};

}  // namespace bohr::olap
