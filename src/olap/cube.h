// Sparse OLAP cube (§2.2).
//
// A cube stores aggregated measures (count / sum / min / max) indexed by
// one member per dimension. Identical attribute combinations share a cell,
// which is exactly what a map-side combiner exploits — so a cube doubles
// as a similarity structure: its cell-count histogram tells how well a
// dataset combines, and cell overlap across sites tells how well merged
// datasets combine.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "olap/dimension.h"
#include "olap/value.h"

namespace bohr::olap {

/// Most dimensions a cube may have. The TPC-DS and Facebook specs have 4,
/// BigData 3; a cap of 4 keeps a cell's key inside its table entry.
inline constexpr std::size_t kMaxCubeDims = 4;

/// Cell address: one member per cube dimension, positionally aligned.
/// Members are held inline, so a key costs no heap block of its own;
/// slots past size() stay zero. It offers the few vector operations its
/// callers use, and compares like a vector (==, lexicographic <).
class CellCoords {
 public:
  using iterator = MemberId*;
  using const_iterator = const MemberId*;

  CellCoords() = default;
  /// `n` zero members.
  explicit CellCoords(std::size_t n) : size_(n) {
    BOHR_EXPECTS(n <= kMaxCubeDims);
  }
  CellCoords(std::initializer_list<MemberId> members)
      : CellCoords(members.begin(), members.end()) {}
  CellCoords(const MemberId* first, const MemberId* last)
      : CellCoords(static_cast<std::size_t>(last - first)) {
    std::copy(first, last, members_.begin());
  }

  std::size_t size() const { return size_; }
  MemberId& operator[](std::size_t i) { return members_[i]; }
  const MemberId& operator[](std::size_t i) const { return members_[i]; }
  iterator begin() { return members_.data(); }
  iterator end() { return members_.data() + size_; }
  const_iterator begin() const { return members_.data(); }
  const_iterator end() const { return members_.data() + size_; }

  void push_back(MemberId m) {
    BOHR_EXPECTS(size_ < kMaxCubeDims);
    members_[size_++] = m;
  }

  friend bool operator==(const CellCoords& a, const CellCoords& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator<(const CellCoords& a, const CellCoords& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  std::array<MemberId, kMaxCubeDims> members_{};
  std::size_t size_ = 0;
};

struct CellCoordsHash {
  std::size_t operator()(const CellCoords& coords) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const MemberId m : coords) h = hash_combine(h, m);
    return static_cast<std::size_t>(h);
  }
};

/// Aggregates held in every cell.
struct CellAggregate {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double measure, std::uint64_t times = 1);
  void merge(const CellAggregate& other);
};

/// A populated cell (address + aggregate): what a cube's table holds.
struct Cell {
  CellCoords coords;
  CellAggregate agg;
};

/// One flat cell table: the cells in one array, in first-insertion order,
/// plus an open-addressing index of positions into that array. Readers
/// never see the array's order: sorted_cells() is the one ordered walk,
/// find() the one lookup, and top_cells() ranks by count.
class OlapCube {
 public:
  OlapCube() = default;
  /// At least one and at most kMaxCubeDims dimensions.
  explicit OlapCube(std::vector<Dimension> dimensions);

  std::size_t dimension_count() const { return dims_.size(); }
  const Dimension& dimension(std::size_t idx) const;
  const std::vector<Dimension>& dimensions() const { return dims_; }

  /// Inserts one record: coordinates must match dimension_count().
  void insert(const CellCoords& coords, double measure);

  /// Bulk merge of a compatible cube (same dimension count). Merging a
  /// cube into itself is a contract violation.
  void merge(const OlapCube& other);

  /// Bulk insert of `coords.size()` records: folds each row's measure
  /// into its cell in row order, exactly as repeated insert() would.
  /// When `project` is non-empty, row i's cell is coords[i] restricted
  /// to those positions (what a dimension cube ingests), so callers
  /// never materialize the projected coordinates.
  void insert_rows(std::span<const CellCoords> coords,
                   std::span<const double> measures,
                   std::span<const std::size_t> project = {});

  std::size_t cell_count() const { return cells_.size(); }
  std::uint64_t total_records() const { return total_records_; }
  bool empty() const { return cells_.empty(); }

  /// Lookup; returns nullptr if the cell has no data. The pointer stays
  /// valid only until the next insert into this cube (insert, insert_rows
  /// or merge), which may grow the table.
  const CellAggregate* find(const CellCoords& coords) const;

  /// --- OLAP operations (each returns a new cube) -----------------------

  /// slice: fix `dim` to `member`, drop that dimension. Cells fold in
  /// sorted_cells() order, as in project().
  OlapCube slice(std::size_t dim, MemberId member) const;

  /// dice: keep only cells whose `dim` coordinate is in `members`;
  /// dimensionality unchanged.
  OlapCube dice(std::size_t dim,
                const std::unordered_set<MemberId>& members) const;

  /// roll-up: coarsen `dim` to hierarchy `level`, merging cells in
  /// sorted_cells() order, as in project().
  OlapCube roll_up(std::size_t dim, std::size_t level) const;

  /// pivot: reorder dimensions by `order` (a permutation).
  OlapCube pivot(const std::vector<std::size_t>& order) const;

  /// dimension cube (§2.2): keep only `dims`, aggregating the rest away.
  /// Cells fold in sorted_cells() order, so equal cubes project to equal
  /// cubes whatever order their cells were inserted in.
  OlapCube project(const std::vector<std::size_t>& dims) const;

  /// project() onto each of `dim_sets`, sorting the cells once.
  std::vector<OlapCube> project_each(
      const std::vector<std::vector<std::size_t>>& dim_sets) const;

  /// --- similarity support ----------------------------------------------

  /// Cells sorted by descending record count (ties broken by coordinates,
  /// so ordering is deterministic). Limited to at most `k` cells;
  /// k == 0 returns all.
  std::vector<Cell> top_cells(std::size_t k) const;

  /// 1 - distinct_cells / total_records: the fraction of records the
  /// map-side combiner removes when aggregating this cube's data by its
  /// dimensions. 0 when every record is unique; -> 1 for heavy repetition.
  double combine_effectiveness() const;

  /// The cells in ascending coordinate order: the one way to walk every
  /// cell, so no reader sees the table's insertion history. Every fold
  /// or floating-point sum over a cube's cells walks this order. The
  /// pointers stay valid only until the next insert into this cube.
  std::vector<const Cell*> sorted_cells() const;

 private:
  /// Cell `coords`'s aggregate, appended as an empty cell when the cube
  /// has none yet.
  CellAggregate& cell_at(const CellCoords& coords);
  /// The index slot holding the cell with `coords` (whose hash is
  /// `hash`), or the empty slot where it would go.
  std::size_t slot_of(std::uint64_t hash, const CellCoords& coords) const;
  /// Doubles the index (at least 8 slots) and re-slots every cell.
  void grow_index();

  static constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);

  std::vector<Dimension> dims_;
  /// The cells, in first-insertion order.
  std::vector<Cell> cells_;
  /// CellCoordsHash of cells_[i]: a fast reject before the coordinate
  /// compare, and what grow_index() re-slots by.
  std::vector<std::uint64_t> hashes_;
  /// Open-addressing index (linear probing, power-of-two size, at most
  /// half full): positions into cells_, kEmptySlot where vacant.
  std::vector<std::uint32_t> slots_;
  std::uint64_t total_records_ = 0;
};

}  // namespace bohr::olap
