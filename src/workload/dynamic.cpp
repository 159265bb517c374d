#include "workload/dynamic.h"

#include <algorithm>

#include "common/check.h"

namespace bohr::workload {

DynamicFeed split_dynamic(const DatasetBundle& dataset,
                          double initial_fraction, std::size_t n_batches) {
  BOHR_EXPECTS(initial_fraction > 0.0 && initial_fraction <= 1.0);
  BOHR_EXPECTS(n_batches >= 1);
  const std::size_t sites = dataset.site_rows.size();
  const olap::RowTable empty(dataset.cube_spec.schema);
  DynamicFeed feed;
  feed.initial.assign(sites, empty);
  feed.batches.assign(n_batches, std::vector<olap::RowTable>(sites, empty));

  for (std::size_t s = 0; s < sites; ++s) {
    const olap::RowTable& rows = dataset.site_rows[s];
    const auto initial_count = static_cast<std::size_t>(
        static_cast<double>(rows.size()) * initial_fraction);
    feed.initial[s].append_range(rows, 0, initial_count);
    const std::size_t remaining = rows.size() - initial_count;
    const std::size_t per_batch = (remaining + n_batches - 1) / n_batches;
    for (std::size_t b = 0; b < n_batches; ++b) {
      const std::size_t begin =
          initial_count + std::min(b * per_batch, remaining);
      const std::size_t end =
          initial_count + std::min((b + 1) * per_batch, remaining);
      feed.batches[b][s].append_range(rows, begin, end);
    }
  }
  return feed;
}

}  // namespace bohr::workload
