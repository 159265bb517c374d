// Geo-distributed dataset bundles produced by the workload generators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query.h"
#include "olap/cube_builder.h"
#include "olap/row_table.h"

namespace bohr::workload {

/// Which benchmark family a dataset belongs to (§8.1).
enum class WorkloadKind {
  BigData,   ///< AMPLab big-data benchmark (rankings / uservisits style)
  TpcDs,     ///< TPC-DS retail star schema
  Facebook,  ///< Facebook Hadoop-trace style jobs
};

std::string to_string(WorkloadKind kind);

/// How the initial 40GB-per-site assignment is made (§8.1): uniformly at
/// random, or clustered by attributes like date/region to mirror the
/// inherent locality of data procurement.
enum class InitialPlacement { Random, LocalityAware };

/// One query type over a dataset: the attribute subset it groups by
/// (positions within the cube spec's dimension list), its share of the
/// dataset's queries, and the execution profile of its queries.
struct QueryTypeSpec {
  std::vector<std::size_t> dim_positions;
  double weight = 1.0;
  engine::QueryKind kind = engine::QueryKind::Aggregation;
};

/// A generated dataset, already spread across sites.
struct DatasetBundle {
  std::size_t dataset_id = 0;
  WorkloadKind kind = WorkloadKind::BigData;
  olap::CubeSpec cube_spec;
  std::vector<QueryTypeSpec> query_types;
  /// site_rows[i] = rows initially stored at site i, as a table over
  /// cube_spec.schema.
  std::vector<olap::RowTable> site_rows;
  /// Logical bytes each synthetic row stands for (rows model fixed-size
  /// blocks of the paper's 40GB/site datasets).
  double bytes_per_row = 0.0;

  std::size_t total_rows() const;
  double total_bytes() const;
};

struct GeneratorConfig {
  std::size_t sites = 10;
  std::size_t rows_per_site = 400;
  /// Logical dataset volume per site; bytes_per_row is derived from it.
  double gb_per_site = 40.0;
  /// Zipf skew of the hot keys (URLs, items, files). High skew keeps a
  /// hot combinable head while the wide universe provides a long tail of
  /// unique records — the realistic mix that makes WHICH records move
  /// matter (the paper's premise).
  double key_skew = 1.3;
  /// Size of the hot-key universe relative to total rows; smaller =
  /// more repetition = more combinable data.
  double key_universe_fraction = 0.8;
  /// Data is generated (and placed) in blocks — one block models an
  /// hour of one frontend's logs, whose keys cluster around one locality
  /// group. Blocks are the placement unit, so per-site key distributions
  /// genuinely diverge even under random placement (the structure that
  /// lets similarity-aware movement beat random movement).
  std::size_t rows_per_block = 40;
  /// Number of locality groups (regional user pools). More groups than
  /// sites => each site pair shares only part of its pools.
  std::size_t locality_groups = 24;
  /// Fraction of keys drawn from the globally-shared hot pool; the rest
  /// come from the block's locality pool.
  double global_key_fraction = 0.25;
  /// Distinct keys per locality pool; small = heavy in-pool repetition.
  std::size_t pool_universe = 32;
  InitialPlacement placement = InitialPlacement::Random;
  std::uint64_t seed = 1;
};

/// Generates one dataset of the given family. Deterministic in
/// (kind, dataset_id, config). Rows are placed on sites per
/// `config.placement`.
DatasetBundle generate_dataset(WorkloadKind kind, std::size_t dataset_id,
                               const GeneratorConfig& config);

}  // namespace bohr::workload
