// Test helpers over controller state: one crc32 over every dataset's
// per-site rows, value by value, so a change to which rows sit where, or
// to their order, changes it; and one over every site's cube images.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "../olap/cube_image.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "core/state.h"
#include "olap/cube_io.h"

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

/// Every dataset's per-site rows in row order: each site's row count,
/// then each value with its type tag.
inline std::uint32_t rows_crc(const std::vector<DatasetState>& datasets) {
  ByteWriter out;
  for (const DatasetState& d : datasets) {
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      out.u64(d.rows_at(s).size());
      for (const olap::Row& row : d.rows_at(s)) write_values(out, row);
    }
  }
  return crc32(out.take());
}

/// Every dataset's per-site encode_cube images, the base cube then each
/// dimension cube: their DIMS and CELLS payloads, which list cells in
/// hash-map iteration order, so a change to a cell's bits, to the key
/// hash or to how a cube was folded changes it. The frames' own checksums
/// stay out: a crc32 run over a payload and then that payload's crc32
/// ends in a state that does not depend on the payload, so a crc32 over
/// whole images would see only their lengths.
inline std::uint32_t cubes_crc(const std::vector<DatasetState>& datasets) {
  std::string payloads;
  const auto add = [&payloads](const olap::OlapCube& cube) {
    const std::string image = olap::encode_cube(cube);
    const olap::cube_image::Frames frames = olap::cube_image::frames(image);
    for (const std::size_t frame : {frames.dims, frames.cells}) {
      payloads.append(image, frame + 8, olap::cube_image::u64_at(image, frame));
    }
  };
  for (const DatasetState& d : datasets) {
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      const olap::DatasetCubes& cubes = d.cubes_at(s);
      add(cubes.base_cube());
      for (olap::QueryTypeId t = 0; t < cubes.query_type_count(); ++t) {
        add(cubes.dimension_cube(t));
      }
    }
  }
  return crc32(payloads);
}

}  // namespace bohr::core
