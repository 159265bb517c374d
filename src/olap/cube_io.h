// Binary serialization of OLAP cubes.
//
// Pre-processed cubes outlive the raw data (§8.5 notes raw data can go
// to cold storage once cubes exist), so they need a durable on-disk
// format that a process crash or a lying disk cannot silently break.
// encode_cube turns a cube into a byte string in format v2, which is
// section-framed and checksummed:
//
//   magic "BOHRCUBE" | u32 version = 2
//   DIMS  section: u64 length | payload | u32 crc32(payload)
//   CELLS section: u64 length | payload | u32 crc32(payload)
//   footer: u64 body_bytes | u32 crc32(body_bytes field) | "BOHREND!"
//
// where DIMS carries u32 dim_count followed by each dimension (name,
// hashed flag, level list of name + granularity), CELLS carries
// u64 total_records, u64 cell_count and the fixed-width cell array
// (dim_count x u64 members | u64 count | f64 sum/min/max), and the
// footer's body_bytes counts every byte before the footer — a
// length-prefixed seal that catches truncation even at a section
// boundary. Fields go through common/bytes.h: little-endian integers,
// doubles as IEEE-754 bit patterns, every count bounds-checked against
// the bytes left before anything is allocated.
//
// Format v1 (the unchecksummed original: magic | version | the DIMS and
// CELLS payloads back to back, no framing) is still decodable, through
// the same payload decoders; encode_cube_v1 is kept so migration
// coverage does not depend on archived binaries. decode_cube reads
// either. save_cube/load_cube are the file forms.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "olap/cube.h"

namespace bohr::olap {

/// Recoverable cube-I/O failure: truncated or corrupted input, checksum
/// or magic/version mismatch, bound-violating contents, or a failed
/// write/flush/rename. Distinct from ContractViolation (programmer
/// error) so callers such as checkpoint recovery can catch corruption
/// without masking bugs.
class CubeIoError : public std::runtime_error {
 public:
  explicit CubeIoError(const std::string& what) : std::runtime_error(what) {}
};

/// The format-v2 image of `cube`.
std::string encode_cube(const OlapCube& cube);

/// Legacy format-v1 image. Only the decoder tests call it, to write v1
/// images instead of keeping archived binaries (DESIGN §3).
std::string encode_cube_v1(const OlapCube& cube);

/// Decodes an image produced by encode_cube (v2) or encode_cube_v1.
/// Throws CubeIoError on truncated, corrupted, or bound-violating input,
/// trailing bytes, and version/magic mismatches.
OlapCube decode_cube(std::string_view bytes);

/// Crash-atomic file save (common/bytes.h): writes `path + ".tmp"`,
/// flushes and closes it, then renames it over `path`. Readers never
/// observe a partially-written cube at `path`. Throws CubeIoError when
/// the file cannot be created, the flush fails (e.g. disk full), or the
/// rename fails.
void save_cube(const std::string& path, const OlapCube& cube);

/// Loads a cube saved by save_cube. Throws CubeIoError when the file
/// cannot be opened or its contents fail decode_cube's checks.
OlapCube load_cube(const std::string& path);

}  // namespace bohr::olap
