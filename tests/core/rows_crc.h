// Test helpers over controller state: the rows section of the state
// image, encoded test-side; one crc32 over every dataset's per-site rows,
// value by value, so a change to which rows sit where, or to their order,
// changes it; and one over every site's cubes, cell by cell.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "../olap/cube_crc.h"
#include "../olap/row_tables.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "core/state.h"

namespace bohr::core {

/// A row's values, each behind its type tag, as the state image writes
/// them after the row's value count.
inline void write_values(ByteWriter& out, const olap::Row& row) {
  for (const olap::Value& v : row) {
    out.u8(static_cast<std::uint8_t>(v.index()));
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      out.u64(static_cast<std::uint64_t>(*i));
    } else if (const auto* x = std::get_if<double>(&v)) {
      out.f64(*x);
    } else {
      out.str<std::uint32_t>(std::get<std::string>(v));
    }
  }
}

/// The state image's closing section, encoded test-side: the dataset
/// count, then per dataset its site count and cube flag, then each
/// site's row count and each row as its value count and its values.
inline std::string rows_section(const std::vector<DatasetState>& datasets) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(datasets.size()));
  for (const DatasetState& d : datasets) {
    out.u32(static_cast<std::uint32_t>(d.site_count()));
    out.u8(d.has_cubes() ? 1 : 0);
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      out.u64(d.rows_at(s).size());
      for (const olap::Row& row : olap::rows_of(d.rows_at(s))) {
        out.u32(static_cast<std::uint32_t>(row.size()));
        write_values(out, row);
      }
    }
  }
  return out.take();
}

/// Every dataset's per-site rows in row order: each site's row count,
/// then each value with its type tag.
inline std::uint32_t rows_crc(const std::vector<DatasetState>& datasets) {
  ByteWriter out;
  for (const DatasetState& d : datasets) {
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      out.u64(d.rows_at(s).size());
      for (const olap::Row& row : olap::rows_of(d.rows_at(s))) {
        write_values(out, row);
      }
    }
  }
  return crc32(out.take());
}

/// Every dataset's per-site cubes, the base cube then each dimension
/// cube, by their sorted cells (olap::add_cells), so a change to a
/// cell's bits, or to which cells a cube holds, changes it.
inline std::uint32_t cubes_crc(const std::vector<DatasetState>& datasets) {
  Crc32 crc;
  for (const DatasetState& d : datasets) {
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      const olap::DatasetCubes& cubes = d.cubes_at(s);
      olap::add_cells(crc, cubes.base_cube());
      for (olap::QueryTypeId t = 0; t < cubes.query_type_count(); ++t) {
        olap::add_cells(crc, cubes.dimension_cube(t));
      }
    }
  }
  return crc.value();
}

}  // namespace bohr::core
