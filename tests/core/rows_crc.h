// Test helper over controller state: one crc32 over every dataset's
// per-site rows, value by value, so a change to which rows sit where, or
// to their order, changes it.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "core/state.h"

namespace bohr::core {

/// Every dataset's per-site rows in row order: each site's row count,
/// then each value with its type tag.
inline std::uint32_t rows_crc(const std::vector<DatasetState>& datasets) {
  ByteWriter out;
  for (const DatasetState& d : datasets) {
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      out.u64(d.rows_at(s).size());
      for (const olap::Row& row : d.rows_at(s)) {
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
    }
  }
  return crc32(out.take());
}

}  // namespace bohr::core
