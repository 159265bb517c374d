// Controller-side state for one dataset: per-site rows, per-site OLAP
// cubes, registered query types, and the mapping from rows to engine
// key/value streams.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "engine/record.h"
#include "olap/cube_store.h"
#include "similarity/probe.h"
#include "workload/dataset.h"
#include "workload/query_mix.h"

namespace bohr::core {

/// Engine shuffle key of a row for a given query type: hash of the
/// projected cube coordinates, so "same key" == "same dimension-cube
/// cell" == "combinable".
std::uint64_t engine_key(const olap::CellCoords& projected_coords);

/// One dataset's controller state across every site.
class DatasetState {
 public:
  /// @param with_cubes build per-site OLAP cubes (Iridium-C and Bohr
  /// variants); without cubes only raw rows are kept (plain Iridium).
  DatasetState(workload::DatasetBundle bundle, workload::DatasetQueryMix mix,
               bool with_cubes);

  std::size_t dataset_id() const { return bundle_.dataset_id; }
  std::size_t site_count() const { return bundle_.site_rows.size(); }
  const workload::DatasetBundle& bundle() const { return bundle_; }
  const workload::DatasetQueryMix& mix() const { return mix_; }
  bool has_cubes() const { return !cubes_.empty(); }

  const std::vector<olap::Row>& rows_at(std::size_t site) const;
  double input_bytes_at(std::size_t site) const;

  /// Version of the per-site rows: a fresh process-wide stamp at
  /// construction and after every change to them (move_rows_multi,
  /// append_rows, restore_sites). Stamps never repeat, so equal versions
  /// mean equal rows even across copies; result caches keyed on a
  /// dataset record it to spot stale entries.
  std::uint64_t version() const { return version_; }
  double total_input_bytes() const;

  /// Registered cube query-type id for query-type spec index `t` (specs
  /// sharing an attribute subset share an id).
  olap::QueryTypeId cube_query_type(std::size_t t) const;
  const olap::DatasetCubes& cubes_at(std::size_t site) const;

  /// Query-type weights over registered cube ids (merging specs that
  /// share a dimension cube), for probe budgeting.
  std::vector<similarity::QueryTypeWeight> cube_type_weights() const;

  /// Every row's engine key at `site` under every query-type spec, one
  /// coords_for per row: keys[r * specs + t] is what map_rows(site, t, 1.0,
  /// ...) emits for row r, with specs = bundle().query_types.size().
  std::vector<std::uint64_t> row_keys(std::size_t site) const;

  /// Builds the mapped input stream at `site` for query-type spec `t`:
  /// one KeyValue per row passing the selectivity filter. Filtering is a
  /// deterministic hash test so recurring queries see consistent data.
  engine::RecordStream map_rows(std::size_t site, std::size_t t,
                                double selectivity,
                                std::uint64_t query_salt) const;

  /// map_rows' `query_salt` for query-type spec `t` of this dataset:
  /// every run of a recurring query filters the same rows.
  std::uint64_t query_salt(std::size_t t) const;

  /// One destination of a multi-way move out of a single source site.
  struct MoveTarget {
    std::size_t dst = 0;
    std::vector<std::size_t> row_indices;  // into rows_at(src), pre-move
  };

  /// Moves rows and their cube cells from `src` to several destinations
  /// atomically. All indices refer to rows_at(src) BEFORE any removal,
  /// must be valid, and must not repeat across targets.
  void move_rows_multi(std::size_t src, std::vector<MoveTarget> targets);

  /// Appends new rows at a site (dynamic datasets, §8.6) and adds them
  /// to its cubes at once.
  void append_rows(std::size_t site, std::vector<olap::Row> rows);

  /// Checkpoint recovery: replaces every site's rows with a snapshot's
  /// and rebuilds every site's cubes from them, by the same row-order
  /// fold as construction and movement.
  void restore_sites(std::vector<std::vector<olap::Row>> site_rows);

 private:
  /// Folds `site`'s rows, in row order, into fresh cubes with every
  /// query type registered: the one way a site's cubes are built.
  void rebuild_cubes_at(std::size_t site);
  /// rebuild_cubes_at for every site, one job per site.
  void rebuild_all_cubes();

  workload::DatasetBundle bundle_;
  workload::DatasetQueryMix mix_;
  olap::CubeBuilder builder_;  // over bundle_.cube_spec
  std::vector<olap::DatasetCubes> cubes_;             // empty if !with_cubes
  std::vector<olap::QueryTypeId> spec_to_cube_type_;  // per query-type spec
  std::uint64_t version_;
};

}  // namespace bohr::core
