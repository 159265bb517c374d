#include "olap/cube_io.h"

#include "common/bytes.h"
#include "common/crc32.h"

namespace bohr::olap {

namespace {

constexpr std::string_view kMagic = "BOHRCUBE";
constexpr std::string_view kEndMagic = "BOHREND!";
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;

using CubeReader = ByteReader<CubeIoError>;

// Smallest encodings, for the minimum element sizes CubeReader::count
// checks counts against: a dimension is at least its name length, hashed
// flag and level count; a level at least its name length and granularity.
constexpr std::size_t kMinDimensionBytes = 3 * 4;
constexpr std::size_t kMinLevelBytes = 4 + 8;

/// Checks Dimension's construction invariants up front so corrupted
/// input surfaces as CubeIoError, never as a ContractViolation from
/// inside the Dimension constructor.
void validate_dimension(const CubeReader& r, const std::string& name,
                        const std::vector<HierarchyLevel>& levels) {
  if (name.empty()) r.fail("dimension with empty name");
  if (levels.front().granularity != 1) {
    r.fail("dimension '" + name + "' missing granularity-1 base level");
  }
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i].granularity <= levels[i - 1].granularity) {
      r.fail("dimension '" + name + "' has non-increasing granularities");
    }
  }
}

// ---- shared payloads (v1 is exactly these two, back to back) ----------

void encode_dimensions(ByteWriter& w, const OlapCube& cube) {
  w.u32(static_cast<std::uint32_t>(cube.dimension_count()));
  for (std::size_t d = 0; d < cube.dimension_count(); ++d) {
    const Dimension& dim = cube.dimension(d);
    w.str<std::uint32_t>(dim.name());
    w.u32(dim.is_hashed() ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(dim.level_count()));
    for (std::size_t l = 0; l < dim.level_count(); ++l) {
      w.str<std::uint32_t>(dim.level(l).name);
      w.u64(dim.level(l).granularity);
    }
  }
}

void encode_cells(ByteWriter& w, const OlapCube& cube) {
  w.u64(cube.total_records());
  w.u64(cube.cell_count());
  for (const auto& [coords, agg] : cube.cells()) {
    for (const MemberId m : coords) w.u64(m);
    w.u64(agg.count);
    w.f64(agg.sum);
    w.f64(agg.min);
    w.f64(agg.max);
  }
}

std::vector<Dimension> decode_dimensions(CubeReader& r) {
  const std::size_t dim_count = r.count<std::uint32_t>(kMinDimensionBytes);
  if (dim_count == 0 || dim_count > kMaxCubeDims) {
    r.fail("dimension count " + std::to_string(dim_count) + " outside [1, " +
           std::to_string(kMaxCubeDims) + "]");
  }
  std::vector<Dimension> dims;
  dims.reserve(dim_count);
  for (std::size_t d = 0; d < dim_count; ++d) {
    const std::string name = r.str<std::uint32_t>();
    const bool hashed = r.u32() != 0;
    const std::size_t level_count = r.count<std::uint32_t>(kMinLevelBytes);
    if (level_count == 0 || level_count >= 64) {
      r.fail("level count " + std::to_string(level_count) +
             " outside (0, 64)");
    }
    std::vector<HierarchyLevel> levels(level_count);
    for (HierarchyLevel& level : levels) {
      level.name = r.str<std::uint32_t>();
      level.granularity = r.u64();
    }
    validate_dimension(r, name, levels);
    dims.emplace_back(name, std::move(levels), hashed);
  }
  return dims;
}

/// Decodes the cells payload, which must run to the reader's end.
OlapCube decode_cells(CubeReader& r, std::vector<Dimension> dims) {
  const std::size_t dim_count = dims.size();
  OlapCube cube(std::move(dims));
  const std::uint64_t total_records = r.u64();
  // Every cell is fixed-width, so the bytes left pin cell_count exactly —
  // a corrupted count cannot over- or under-read silently.
  const std::size_t cell_bytes = 8 * dim_count + 8 + 3 * 8;
  const std::size_t cell_count = r.count<std::uint64_t>(cell_bytes);
  if (cell_count * cell_bytes != r.remaining()) {
    r.fail("cell count " + std::to_string(cell_count) +
           " disagrees with the bytes left");
  }
  cube.reserve_cells(cell_count);
  CellCoords coords(dim_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    for (auto& m : coords) m = r.u64();
    CellAggregate agg;
    agg.count = r.u64();
    agg.sum = r.f64();
    agg.min = r.f64();
    agg.max = r.f64();
    cube.insert_aggregate(coords, agg);
  }
  if (cube.total_records() != total_records) {
    r.fail("recorded total_records disagrees with summed cell counts");
  }
  return cube;
}

// ---- v2 framing ---------------------------------------------------------

/// One framed section: u64 length | payload | u32 crc.
void write_section(ByteWriter& w, std::string_view payload) {
  w.str<std::uint64_t>(payload);
  w.u32(crc32(payload));
}

/// Reads one framed section and verifies its checksum.
std::string_view read_section(CubeReader& r, const std::string& name) {
  const std::string_view payload = r.bytes(r.u64());
  if (r.u32() != crc32(payload)) r.fail(name + " section checksum mismatch");
  return payload;
}

OlapCube decode_v2(CubeReader& r, std::size_t image_size) {
  CubeReader dims_reader(read_section(r, "DIMS"),
                         "cube file corrupt: DIMS section");
  std::vector<Dimension> dims = decode_dimensions(dims_reader);
  dims_reader.expect_end();

  CubeReader cells_reader(read_section(r, "CELLS"),
                          "cube file corrupt: CELLS section");
  OlapCube cube = decode_cells(cells_reader, std::move(dims));

  // Footer: the length seal must match every byte before it.
  const std::uint64_t body_bytes = image_size - r.remaining();
  const std::uint64_t stored_body = r.u64();
  const std::uint32_t stored_crc = r.u32();
  r.magic(kEndMagic);
  r.expect_end();
  if (stored_crc != crc32(&stored_body, sizeof(stored_body))) {
    r.fail("footer checksum mismatch");
  }
  if (stored_body != body_bytes) {
    r.fail("footer length seal " + std::to_string(stored_body) +
           " != body bytes " + std::to_string(body_bytes));
  }
  return cube;
}

}  // namespace

std::string encode_cube(const OlapCube& cube) {
  ByteWriter dims;
  encode_dimensions(dims, cube);
  ByteWriter cells;
  encode_cells(cells, cube);

  ByteWriter w;
  w.raw(kMagic);
  w.u32(kVersionV2);
  write_section(w, dims.take());
  write_section(w, cells.take());
  // Length-prefixed footer sealing everything written so far.
  const std::uint64_t body_bytes = w.size();
  w.u64(body_bytes);
  w.u32(crc32(&body_bytes, sizeof(body_bytes)));
  w.raw(kEndMagic);
  return w.take();
}

std::string encode_cube_v1(const OlapCube& cube) {
  ByteWriter w;
  w.raw(kMagic);
  w.u32(kVersionV1);
  encode_dimensions(w, cube);
  encode_cells(w, cube);
  return w.take();
}

OlapCube decode_cube(std::string_view bytes) {
  CubeReader r(bytes, "cube file corrupt");
  r.magic(kMagic);
  const std::uint32_t version = r.u32();
  switch (version) {
    case kVersionV1: {
      std::vector<Dimension> dims = decode_dimensions(r);
      return decode_cells(r, std::move(dims));
    }
    case kVersionV2:
      return decode_v2(r, bytes.size());
    default:
      r.fail("unsupported format version " + std::to_string(version));
  }
}

void save_cube(const std::string& path, const OlapCube& cube) {
  write_file_atomically<CubeIoError>(path, encode_cube(cube));
}

OlapCube load_cube(const std::string& path) {
  return decode_cube(read_file<CubeIoError>(path));
}

}  // namespace bohr::olap
