// Test-side fingerprint of a cube by its cells, not by the order its map
// stores them in: what every reader of a cube reads.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/crc32.h"
#include "olap/cube.h"

namespace bohr::olap {

/// Feeds `cube` to `crc`: its dimension count, then each cell in
/// sorted_cells() order as its coordinates, its count and the bits of
/// its sum, min and max. A change to any cell's bits, or to which cells
/// exist, changes the digest; the map's iteration order does not.
inline void add_cells(Crc32& crc, const OlapCube& cube) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(cube.dimension_count()));
  for (const auto* cell : cube.sorted_cells()) {
    for (const MemberId m : cell->first) out.u64(m);
    out.u64(cell->second.count);
    out.f64(cell->second.sum);
    out.f64(cell->second.min);
    out.f64(cell->second.max);
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
