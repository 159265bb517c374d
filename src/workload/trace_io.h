// CSV import/export of geo-distributed datasets, so real traces can be
// fed to the system and synthetic ones inspected with standard tools.
//
// Format: one header row naming the schema attributes plus a leading
// `site` column; one data row per record:
//
//   site,url,region,date,revenue
//   0,17,3,42,12.5
//
// Text attributes may be quoted with double quotes ("" escapes a quote).
#pragma once

#include <iosfwd>

#include "workload/dataset.h"

namespace bohr::workload {

/// Writes the bundle's rows as CSV. Deterministic order: by site, then
/// storage order.
void write_csv(std::ostream& out, const DatasetBundle& bundle);

/// Parses CSV into per-site rows against `spec`'s schema. The header must
/// match `site` + the schema's attribute names exactly; each row's site
/// index must be < `sites`. Throws ContractViolation on malformed input.
/// The returned bundle copies `spec`, `query_types`, and `bytes_per_row`
/// from `reference` (data volume semantics cannot be inferred from CSV).
DatasetBundle read_csv(std::istream& in, const DatasetBundle& reference,
                       std::size_t sites);

}  // namespace bohr::workload
