// Splitting a site's input into RDD partitions.
//
// The policy matters for combiner effectiveness: cube-backed systems
// (Iridium-C and all Bohr variants) store records sorted/clustered by the
// queried attributes (§4.1 "similar local records have already been
// clustered in the cube"), so identical keys land in the same map task and
// combine well. Without cubes, records are partitioned in arrival order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/record.h"

namespace bohr::engine {

enum class PartitionPolicy {
  ArrivalOrder,  ///< raw log order (vanilla Spark / Iridium)
  CubeSorted,    ///< sorted by key, i.e. clustered by the dimension cube
};

/// Splits `records` into partitions of at most `partition_records` each.
/// Always yields at least one partition for non-empty input; empty input
/// yields no partitions.
std::vector<RecordStream> make_partitions(
    std::span<const std::uint64_t> records, std::size_t partition_records,
    PartitionPolicy policy);

/// Reduce work decomposed into B relocatable, equal-weight buckets.
/// `owner[b]` is the site running bucket b; each bucket carries 1/B of
/// the reduce keyspace. The migration controller moves individual
/// buckets between sites instead of re-solving the placement LP, and the
/// job runner derives per-site reduce fractions from the ownership
/// counts — so a relocation is a pure control-plane delta.
struct ReduceBucketMap {
  std::vector<std::uint32_t> owner;  ///< bucket -> site
  std::size_t site_count = 0;

  std::size_t bucket_count() const { return owner.size(); }

  /// Quantizes continuous reduce fractions into `n_buckets` buckets by
  /// largest-remainder apportionment (deterministic; ties break on the
  /// lower site id). Buckets are numbered contiguously per site in site
  /// order. Fractions must be non-negative and sum to ~1.
  static ReduceBucketMap from_fractions(const std::vector<double>& fractions,
                                        std::size_t n_buckets);

  /// Per-site reduce fractions implied by the current ownership
  /// (counts / B); sums to exactly 1.
  std::vector<double> to_fractions() const;

  /// Buckets owned by `site`, in ascending bucket order.
  std::vector<std::size_t> buckets_at(std::size_t site) const;

  /// Reassigns bucket `bucket` to `site` (bounds-checked).
  void relocate(std::size_t bucket, std::size_t site);
};

}  // namespace bohr::engine
