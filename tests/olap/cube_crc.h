// Test-side fingerprint of a cube by its cells, not by the order its
// table stores them in: what every reader of a cube reads.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/crc32.h"
#include "olap/cube.h"

namespace bohr::olap {

/// Feeds `cube` to `crc`: its dimension count, then each cell in
/// sorted_cells() order as its coordinates, its count and the bits of
/// its sum, min and max. A change to any cell's bits, or to which cells
/// exist, changes the digest; the table's insertion order does not.
inline void add_cells(Crc32& crc, const OlapCube& cube) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(cube.dimension_count()));
  for (const auto* cell : cube.sorted_cells()) {
    for (const MemberId m : cell->coords) out.u64(m);
    out.u64(cell->agg.count);
    out.f64(cell->agg.sum);
    out.f64(cell->agg.min);
    out.f64(cell->agg.max);
  }
  crc.update(out.take());
}

/// crc32 of one cube's add_cells() bytes.
inline std::uint32_t cells_crc(const OlapCube& cube) {
  Crc32 crc;
  add_cells(crc, cube);
  return crc.value();
}

}  // namespace bohr::olap
