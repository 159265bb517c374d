// Probe-based cross-site similarity checking (§4.2).
//
// The bottleneck site composes a probe of k representative records per
// dataset: the dimension cube of each query type already clusters records
// (a cube cell = one cluster of identical attribute combinations), so the
// probe takes the top-k cells by cluster size, with k split across query
// types in proportion to their query weights. A receiving site scores the
// probe against its own dimension cubes; the controller collects those
// scores as the S^a_{i,j} inputs of the placement LP.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "olap/cube_store.h"

namespace bohr::similarity {

/// Relative weight of one query type over a dataset: the fraction of the
/// dataset's queries that belong to this type (§4.2).
struct QueryTypeWeight {
  olap::QueryTypeId query_type = 0;
  double weight = 0.0;
};

/// One probe representative: a cluster (cube cell) of a query type's
/// dimension cube at the probing site.
struct ProbeRecord {
  olap::QueryTypeId query_type = 0;
  olap::CellCoords coords;
  std::uint64_t cluster_size = 0;
};

struct Probe {
  std::size_t dataset_id = 0;
  std::vector<ProbeRecord> records;

  /// Serialized size, for overhead accounting: coordinates + counts.
  std::uint64_t wire_bytes() const;
};

/// How a receiving site scored a probe.
struct ProbeEvaluation {
  /// Weighted fraction of probe clusters present at the receiver, in
  /// [0, 1]. Weights are cluster sizes, so matching a popular cluster
  /// counts for more.
  double similarity = 0.0;
  /// matched[r] — whether probe record r's cell exists at the receiver.
  /// Drives the similarity-aware choice of which clusters to move.
  std::vector<std::uint8_t> matched;
};

/// Builds the probe for a dataset at the probing site. `k` is the total
/// record budget across all query types; each type with positive weight
/// receives at least one record. Weights must be non-negative and sum to
/// a positive value.
Probe build_probe(std::size_t dataset_id, const olap::DatasetCubes& cubes,
                  std::span<const QueryTypeWeight> weights, std::size_t k);

/// Ablation variant: probe records sampled uniformly from the dimension
/// cube's cells instead of taking the top clusters by size (shows why
/// §4.2's cluster-size ranking matters).
Probe build_probe_random(std::size_t dataset_id,
                         const olap::DatasetCubes& cubes,
                         std::span<const QueryTypeWeight> weights,
                         std::size_t k, std::uint64_t seed);

/// Scores a probe against a receiving site's cubes for the same dataset.
/// Both sides must have registered the same query types.
ProbeEvaluation evaluate_probe(const Probe& probe,
                               const olap::DatasetCubes& receiver);

/// Self-similarity S^a_i of a site's own data (Eq. 1 input): the
/// query-weighted combiner effectiveness of the site's dimension cubes.
double self_similarity(const olap::DatasetCubes& cubes,
                       std::span<const QueryTypeWeight> weights);

/// Splits a total probe budget across datasets proportionally to dataset
/// sizes (Table 2: "the number of records in the probe for each dataset
/// [is based] mainly on the dataset size"). Every dataset gets >= 1.
std::vector<std::size_t> allocate_probe_budget(
    std::span<const double> dataset_sizes, std::size_t total_k);

}  // namespace bohr::similarity
