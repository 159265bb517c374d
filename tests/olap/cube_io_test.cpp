#include "olap/cube_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "cube_image.h"

namespace bohr::olap {
namespace {

OlapCube sample_cube() {
  const Dimension date("date", {{"day", 1}, {"month", 30}}, false);
  const Dimension bucket("bucket", {{"base", 1}, {"b16", 16}}, true);
  OlapCube cube({date, bucket, Dimension("plain")});
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    cube.insert({rng.below(60), rng.below(256), rng.below(40)},
                rng.uniform(-5.0, 5.0));
  }
  return cube;
}

bool cubes_equal(const OlapCube& a, const OlapCube& b) {
  if (a.dimension_count() != b.dimension_count()) return false;
  if (a.total_records() != b.total_records()) return false;
  if (a.cell_count() != b.cell_count()) return false;
  for (const auto& [coords, agg] : a.cells()) {
    const CellAggregate* other = b.find(coords);
    if (other == nullptr) return false;
    if (other->count != agg.count || other->sum != agg.sum ||
        other->min != agg.min || other->max != agg.max) {
      return false;
    }
  }
  return true;
}

TEST(CubeIoTest, RoundTripPreservesEverything) {
  const OlapCube original = sample_cube();
  const OlapCube loaded = decode_cube(encode_cube(original));
  EXPECT_TRUE(cubes_equal(original, loaded));
}

TEST(CubeIoTest, RoundTripPreservesDimensions) {
  const OlapCube original = sample_cube();
  const OlapCube loaded = decode_cube(encode_cube(original));
  ASSERT_EQ(loaded.dimension_count(), 3u);
  EXPECT_EQ(loaded.dimension(0).name(), "date");
  EXPECT_EQ(loaded.dimension(0).level(1).granularity, 30u);
  EXPECT_FALSE(loaded.dimension(0).is_hashed());
  EXPECT_TRUE(loaded.dimension(1).is_hashed());
  // Hashed coarsening must behave identically after the round trip.
  EXPECT_EQ(loaded.dimension(1).coarsen(35, 1),
            original.dimension(1).coarsen(35, 1));
}

TEST(CubeIoTest, RoundTrippedCubeStillQueries) {
  const OlapCube original = sample_cube();
  const OlapCube loaded = decode_cube(encode_cube(original));
  // Roll-up on the loaded cube matches roll-up on the original.
  const OlapCube a = original.roll_up(0, 1);
  const OlapCube b = loaded.roll_up(0, 1);
  EXPECT_TRUE(cubes_equal(a, b));
}

TEST(CubeIoTest, EmptyCubeRoundTrips) {
  OlapCube empty({Dimension("k")});
  const OlapCube loaded = decode_cube(encode_cube(empty));
  EXPECT_EQ(loaded.cell_count(), 0u);
  EXPECT_EQ(loaded.total_records(), 0u);
}

TEST(CubeIoTest, RejectsBadMagic) {
  EXPECT_THROW(decode_cube("NOTACUBExxxxxxxxxxxxxxxxxxxxxxxx"), CubeIoError);
}

TEST(CubeIoTest, RejectsUnsupportedVersion) {
  std::string bytes = encode_cube(sample_cube());
  const std::uint32_t bogus = 99;
  std::memcpy(bytes.data() + 8, &bogus, 4);
  EXPECT_THROW(decode_cube(bytes), CubeIoError);
}

TEST(CubeIoTest, RejectsTruncatedStream) {
  const std::string full = encode_cube(sample_cube());
  EXPECT_THROW(decode_cube(full.substr(0, full.size() / 2)), CubeIoError);
}

/// The v2 layout carved into its framing sections, by byte range.
struct SectionSpan {
  const char* name;
  std::size_t begin;
  std::size_t end;
};

std::vector<SectionSpan> v2_sections(const std::string& bytes) {
  // Parse the length prefixes the same way the reader does, so the
  // matrix below stays correct if the sample cube changes size.
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
  };
  std::vector<SectionSpan> spans;
  spans.push_back({"magic", 0, 8});
  spans.push_back({"version", 8, 12});
  std::size_t off = 12;
  const std::size_t dims_len = static_cast<std::size_t>(u64_at(off));
  spans.push_back({"dims-frame", off, off + 8 + dims_len + 4});
  off += 8 + dims_len + 4;
  const std::size_t cells_len = static_cast<std::size_t>(u64_at(off));
  spans.push_back({"cells-frame", off, off + 8 + cells_len + 4});
  off += 8 + cells_len + 4;
  spans.push_back({"footer", off, off + 8 + 4 + 8});
  EXPECT_EQ(off + 8 + 4 + 8, bytes.size());
  return spans;
}

TEST(CubeIoCorruptionTest, TruncationAtEverySectionBoundaryThrows) {
  const std::string full = encode_cube(sample_cube());
  for (const SectionSpan& span : v2_sections(full)) {
    // Cut right at the section start, mid-section, and one byte short
    // of its end — a crash can stop a write anywhere.
    for (const std::size_t cut :
         {span.begin, (span.begin + span.end) / 2, span.end - 1}) {
      SCOPED_TRACE(std::string(span.name) + " cut at byte " +
                   std::to_string(cut));
      EXPECT_THROW(decode_cube(full.substr(0, cut)), CubeIoError);
    }
  }
}

TEST(CubeIoCorruptionTest, BitFlipInEverySectionThrows) {
  const std::string full = encode_cube(sample_cube());
  for (const SectionSpan& span : v2_sections(full)) {
    // One flipped bit per section, planted mid-section so it lands in
    // the payload (not just the framing) where only the CRC can see it.
    const std::size_t victim = (span.begin + span.end) / 2;
    for (const int bit : {0, 7}) {
      SCOPED_TRACE(std::string(span.name) + " bit " + std::to_string(bit) +
                   " at byte " + std::to_string(victim));
      std::string corrupted = full;
      corrupted[victim] = static_cast<char>(
          static_cast<unsigned char>(corrupted[victim]) ^ (1u << bit));
      EXPECT_THROW(decode_cube(corrupted), CubeIoError);
    }
  }
}

TEST(CubeIoCorruptionTest, LyingCellCountThrows) {
  // Corrupt the cell count *and* fix up the section CRC, so only the
  // fixed-width length consistency check can catch it.
  std::string bytes = encode_cube(sample_cube());
  cube_image::add_to_cell_count(bytes, 1);
  EXPECT_THROW(decode_cube(bytes), CubeIoError);
}

TEST(CubeIoCorruptionTest, InflatedCellCountThrowsCubeIoError) {
  // Every cell is a multiple of 8 bytes, so adding 2^61 to the count
  // leaves count x cell bytes unchanged modulo 2^64: a multiplied length
  // check passes, and the count reaches the allocator unless it is
  // bounded by the bytes left first.
  std::string bytes = encode_cube(sample_cube());
  cube_image::add_to_cell_count(bytes, std::uint64_t{1} << 61);
  EXPECT_THROW(decode_cube(bytes), CubeIoError);
}

/// A well-formed v2 image of a `dim_count`-dimension cube holding one
/// cell: every frame, count and checksum agrees, so only the dimension
/// cap can reject it.
std::string one_cell_image(std::uint32_t dim_count) {
  ByteWriter dims;
  dims.u32(dim_count);
  for (std::uint32_t d = 0; d < dim_count; ++d) {
    dims.str<std::uint32_t>("d" + std::to_string(d));
    dims.u32(0);  // not hashed
    dims.u32(1);  // one level
    dims.str<std::uint32_t>("base");
    dims.u64(1);
  }
  ByteWriter cells;
  cells.u64(1);  // total records
  cells.u64(1);  // cell count
  for (std::uint32_t d = 0; d < dim_count; ++d) cells.u64(d);
  cells.u64(1);
  for (int field = 0; field < 3; ++field) cells.f64(2.5);  // sum, min, max
  return cube_image::frame_v2(dims.take(), cells.take());
}

TEST(CubeIoCorruptionTest, MoreThanFourDimensionsThrowCubeIoError) {
  const OlapCube four = decode_cube(one_cell_image(4));
  EXPECT_EQ(four.dimension_count(), 4u);
  EXPECT_EQ(four.total_records(), 1u);
  try {
    decode_cube(one_cell_image(5));
    FAIL() << "a five-dimension image decoded";
  } catch (const CubeIoError& e) {
    EXPECT_NE(std::string(e.what()).find("dimension count 5"),
              std::string::npos)
        << e.what();
  }
}

TEST(CubeIoCompatTest, V1FilesStillLoad) {
  const OlapCube original = sample_cube();
  const OlapCube loaded = decode_cube(encode_cube_v1(original));
  EXPECT_TRUE(cubes_equal(original, loaded));
}

TEST(CubeIoCompatTest, TruncatedV1ThrowsCubeIoError) {
  const OlapCube original = sample_cube();
  const std::string full = encode_cube_v1(original);
  EXPECT_THROW(decode_cube(full.substr(0, full.size() - 3)), CubeIoError);
}

TEST(CubeIoTest, FileRoundTrip) {
  const OlapCube original = sample_cube();
  const std::string path = "/tmp/bohr_cube_io_test.cube";
  save_cube(path, original);
  const OlapCube loaded = load_cube(path);
  EXPECT_TRUE(cubes_equal(original, loaded));
  std::remove(path.c_str());
}

TEST(CubeIoTest, SaveLeavesNoTempFileBehind) {
  const std::string path = "/tmp/bohr_cube_io_atomic_test.cube";
  save_cube(path, sample_cube());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.is_open());
  std::remove(path.c_str());
}

TEST(CubeIoTest, FailedSavePreservesExistingFile) {
  // A save into an uncreatable temp file must throw and leave any
  // previously saved cube untouched.
  const std::string dir = "/tmp/bohr-no-such-dir-xyzzy";
  EXPECT_THROW(save_cube(dir + "/cube", sample_cube()), CubeIoError);

  const std::string path = "/tmp/bohr_cube_io_keep_test.cube";
  const OlapCube original = sample_cube();
  save_cube(path, original);
  // Second save succeeds by atomically replacing — never truncating —
  // so a reader opening `path` at any moment sees a complete cube.
  save_cube(path, original);
  EXPECT_TRUE(cubes_equal(original, load_cube(path)));
  std::remove(path.c_str());
}

TEST(CubeIoTest, MissingFileThrows) {
  EXPECT_THROW(load_cube("/tmp/definitely-not-a-file.cube"), CubeIoError);
}

}  // namespace
}  // namespace bohr::olap
