// Highly-dynamic dataset feeds (§8.6): a dataset is split into an initial
// portion plus fixed-size batches that arrive between recurring queries.
#pragma once

#include <cstddef>
#include <vector>

#include "workload/dataset.h"

namespace bohr::workload {

struct DynamicFeed {
  /// initial[site] = rows available before the first query.
  std::vector<olap::RowTable> initial;
  /// batches[b][site] = rows arriving in batch b (one batch per query
  /// interval, §8.6: 2GB every 20 seconds).
  std::vector<std::vector<olap::RowTable>> batches;

  std::size_t batch_count() const { return batches.size(); }
};

/// Splits each site's rows: the first `initial_fraction` become the
/// initial data; the rest is cut into `n_batches` near-equal batches
/// (row order preserved — data arrives in generation order).
DynamicFeed split_dynamic(const DatasetBundle& dataset,
                          double initial_fraction, std::size_t n_batches);

}  // namespace bohr::workload
