#include "common/table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"

namespace bohr {
namespace {

TEST(TableTest, RendersHeadersAndRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TableTest, MismatchedRowThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TableTest, NumFormatsFixed) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(HashTest, Fnv1aKnownValue) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(HashTest, Mix64IsInjectiveOnSamples) {
  EXPECT_NE(mix64(1), mix64(2));
  // mix64 is a bijection with fixed point 0 (murmur3 finalizer property).
  EXPECT_EQ(mix64(0), 0u);
  EXPECT_NE(mix64(1), 1u);
}

/// Inverse of an odd multiplier mod 2^64 by Newton's iteration: each
/// step doubles the correct low bits, and c * c == 1 mod 8 gives three.
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t c) {
  std::uint64_t inv = c;
  for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
  return inv;
}

/// mix64 undone step by step: x ^= x >> 33 is its own inverse (the
/// shifted copy is clear of the bits it changes), and each odd multiply
/// is undone by its modular inverse.
constexpr std::uint64_t unmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= inverse_mod_2_64(0xC4CEB9FE1A85EC53ULL);
  x ^= x >> 33;
  x *= inverse_mod_2_64(0xFF51AFD7ED558CCDULL);
  x ^= x >> 33;
  return x;
}

TEST(HashTest, Mix64RoundTripsThroughItsInverse) {
  // The inverse proves mix64 a bijection, which DIMSUM relies on to
  // leave disjoint key sets unscored (their MinHash slots never agree).
  for (const std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1},
                                std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(unmix64(mix64(x)), x);
    EXPECT_EQ(mix64(unmix64(x)), x);
  }
  Rng rng(64);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng();
    ASSERT_EQ(unmix64(mix64(x)), x) << x;
    ASSERT_EQ(mix64(unmix64(x)), x) << x;
  }
}

TEST(HashTest, IndexedHashVariesWithIndex) {
  EXPECT_NE(indexed_hash(42, 0), indexed_hash(42, 1));
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

}  // namespace
}  // namespace bohr
