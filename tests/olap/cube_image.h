// Test helpers over the byte layout of a format-v2 cube image
// (olap/cube_io.h): find the section frames, and edit a field while
// resealing the section checksum, so only the decoder's own checks can
// catch the edit.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/crc32.h"

namespace bohr::olap::cube_image {

/// Offsets of the v2 frames: each section frame is u64 length | payload |
/// u32 crc, and the footer follows the CELLS frame.
struct Frames {
  std::size_t dims = 0;
  std::size_t cells = 0;
  std::size_t footer = 0;
};

inline std::uint64_t u64_at(const std::string& image, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, image.data() + at, sizeof(v));
  return v;
}

inline Frames frames(const std::string& image) {
  Frames f;
  f.dims = 8 + 4;  // magic + version
  f.cells = f.dims + 8 + u64_at(image, f.dims) + 4;
  f.footer = f.cells + 8 + u64_at(image, f.cells) + 4;
  return f;
}

/// A v2 image around the given DIMS and CELLS payloads, framed and sealed
/// as encode_cube does, so a test can build an image no OlapCube encodes.
inline std::string frame_v2(std::string_view dims, std::string_view cells) {
  ByteWriter w;
  w.raw("BOHRCUBE");
  w.u32(2);
  for (const std::string_view payload : {dims, cells}) {
    w.str<std::uint64_t>(payload);
    w.u32(crc32(payload));
  }
  const std::uint64_t body_bytes = w.size();
  w.u64(body_bytes);
  w.u32(crc32(&body_bytes, sizeof(body_bytes)));
  w.raw("BOHREND!");
  return w.take();
}

/// Recomputes the CRC of the section whose frame starts at `frame`.
inline void reseal_section(std::string& image, std::size_t frame) {
  const std::uint64_t length = u64_at(image, frame);
  const std::uint32_t crc = crc32(image.data() + frame + 8, length);
  std::memcpy(image.data() + frame + 8 + length, &crc, sizeof(crc));
}

/// Adds `delta` to the CELLS payload's cell count (its second u64) and
/// reseals the section.
inline void add_to_cell_count(std::string& image, std::uint64_t delta) {
  const std::size_t cells = frames(image).cells;
  const std::size_t count_at = cells + 8 + 8;
  const std::uint64_t count = u64_at(image, count_at) + delta;
  std::memcpy(image.data() + count_at, &count, sizeof(count));
  reseal_section(image, cells);
}

}  // namespace bohr::olap::cube_image
