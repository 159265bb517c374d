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
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "olap/dimension.h"
#include "olap/value.h"

namespace bohr::olap {

class CubeColumns;

/// Most dimensions a cube may have. The TPC-DS and Facebook specs have 4,
/// BigData 3; a cap of 4 keeps a cell's key inside its map node.
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

/// A populated cell (address + aggregate), used in query results.
struct Cell {
  CellCoords coords;
  CellAggregate agg;
};

class OlapCube {
 public:
  OlapCube() = default;
  /// At least one and at most kMaxCubeDims dimensions.
  explicit OlapCube(std::vector<Dimension> dimensions);

  // The columnar-snapshot cache is guarded by a mutex (concurrent readers
  // may race to build it), so copy/move are user-provided: copies share
  // the still-valid snapshot, moves steal it.
  OlapCube(const OlapCube& other);
  OlapCube& operator=(const OlapCube& other);
  OlapCube(OlapCube&& other) noexcept;
  OlapCube& operator=(OlapCube&& other) noexcept;

  std::size_t dimension_count() const { return dims_.size(); }
  const Dimension& dimension(std::size_t idx) const;
  const std::vector<Dimension>& dimensions() const { return dims_; }

  /// Inserts one record: coordinates must match dimension_count().
  void insert(const CellCoords& coords, double measure);

  /// Inserts a pre-aggregated cell (deserialization / cube merging from
  /// the wire). Coordinates must match dimension_count().
  void insert_aggregate(const CellCoords& coords, const CellAggregate& agg);

  /// Bulk merge of a compatible cube (same dimension count).
  void merge(const OlapCube& other);

  /// Bulk insert of `coords.size()` records: reserves room for them, then
  /// folds each row's measure into its cell in row order, exactly as
  /// repeated insert() would. When `project` is non-empty, row i's cell
  /// is coords[i] restricted to those positions (what a dimension cube
  /// ingests), so callers never materialize the projected coordinates.
  void insert_rows(std::span<const CellCoords> coords,
                   std::span<const double> measures,
                   std::span<const std::size_t> project = {});

  std::size_t cell_count() const { return cells_.size(); }
  std::uint64_t total_records() const { return total_records_; }
  bool empty() const { return cells_.empty(); }

  /// Pre-sizes the cell map for `n` expected cells — bulk loaders (e.g.
  /// cube deserialization) call this to avoid rehash churn.
  void reserve_cells(std::size_t n) { cells_.reserve(n); }

  /// Lookup; returns nullptr if the cell has no data.
  const CellAggregate* find(const CellCoords& coords) const;

  /// --- OLAP operations (each returns a new cube) -----------------------

  /// slice: fix `dim` to `member`, drop that dimension.
  OlapCube slice(std::size_t dim, MemberId member) const;

  /// dice: keep only cells whose `dim` coordinate is in `members`;
  /// dimensionality unchanged.
  OlapCube dice(std::size_t dim,
                const std::unordered_set<MemberId>& members) const;

  /// roll-up: coarsen `dim` to hierarchy `level`, merging cells.
  OlapCube roll_up(std::size_t dim, std::size_t level) const;

  /// pivot: reorder dimensions by `order` (a permutation).
  OlapCube pivot(const std::vector<std::size_t>& order) const;

  /// dimension cube (§2.2): keep only `dims`, aggregating the rest away.
  /// Cells fold in sorted_cells() order, so equal cubes project to equal
  /// cubes whatever order their maps iterate in.
  OlapCube project(const std::vector<std::size_t>& dims) const;

  /// --- similarity support ----------------------------------------------

  /// Cells sorted by descending record count (ties broken by coordinates,
  /// so ordering is deterministic). Limited to at most `k` cells;
  /// k == 0 returns all.
  std::vector<Cell> top_cells(std::size_t k) const;

  /// 1 - distinct_cells / total_records: the fraction of records the
  /// map-side combiner removes when aggregating this cube's data by its
  /// dimensions. 0 when every record is unique; -> 1 for heavy repetition.
  double combine_effectiveness() const;

  /// Columnar (struct-of-arrays) snapshot of the cells, lazily built and
  /// cached until the next mutation. The hot read paths — top-cell
  /// ranking, probe scoring, cube queries — stream the snapshot instead
  /// of chasing map nodes. Safe to call from concurrent readers: racing
  /// builders build outside the lock, the first install wins, and every
  /// racer returns that one snapshot.
  std::shared_ptr<const CubeColumns> columns() const;

  /// Iteration support for tests and serialization.
  const std::unordered_map<CellCoords, CellAggregate, CellCoordsHash>& cells()
      const {
    return cells_;
  }

  /// The cells in ascending coordinate order: the canonical order for
  /// every read whose result depends on order, independent of the map's
  /// bucket layout and insertion history.
  std::vector<const std::pair<const CellCoords, CellAggregate>*>
  sorted_cells() const;

 private:
  /// Drops the cached snapshot (call on any mutation). The relaxed flag
  /// probe keeps the per-insert cost of an already-empty cache to one
  /// cheap load.
  void invalidate_columns() {
    if (columns_valid_.load(std::memory_order_relaxed)) {
      set_cached_columns(nullptr);
    }
  }

  std::shared_ptr<const CubeColumns> cached_columns() const {
    std::lock_guard lock(columns_mu_);
    return columns_cache_;
  }

  void set_cached_columns(std::shared_ptr<const CubeColumns> snap) {
    std::lock_guard lock(columns_mu_);
    columns_valid_.store(snap != nullptr, std::memory_order_relaxed);
    columns_cache_ = std::move(snap);
  }

  std::vector<Dimension> dims_;
  std::unordered_map<CellCoords, CellAggregate, CellCoordsHash> cells_;
  std::uint64_t total_records_ = 0;
  mutable std::atomic<bool> columns_valid_{false};
  mutable std::mutex columns_mu_;
  /// Guarded by columns_mu_.
  mutable std::shared_ptr<const CubeColumns> columns_cache_;
};

}  // namespace bohr::olap
