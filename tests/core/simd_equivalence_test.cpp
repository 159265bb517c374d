// Scalar/SIMD kernel equivalence — the property that lets the similarity
// hot path pick its kernel tier per process without touching the
// determinism story. Every x86-64 build holds both tiers, so one binary
// tests both: each kernel in src/common/simd.h, dispatched or called as
// its AVX2 body, must return exactly what its scalar twin returns on
// arbitrary inputs — integer kernels bit-for-bit because the math is
// exact, float kernels bit-for-bit because both tiers accumulate in the
// same 4-lane blocked order with FMA contraction disabled. The AVX2 cases
// also start 1-3 elements into a larger buffer, since the bodies use
// unaligned loads; they skip, saying why, on a CPU without AVX2.
//
// The zero-block kernels get their own cases: nonzero_blocks against the
// definition on ±0.0, subnormals, NaN and infinities, and
// squared_distance_blocks against squared_distance under exact, superset,
// all-ones and tail-only masks, at sizes that cross a 64-block mask word.
//
// On top of the raw kernels, the suite checks the derived MinHash
// quantities end to end: batched signature construction against the
// streaming path, and the packed Jaccard estimate against a slot-by-slot
// reference.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "similarity/minhash.h"

namespace bohr {
namespace {

using similarity::MinHashSignature;

// Sizes straddling every vector width boundary: empty, sub-width, exact
// multiples, and off-by-one tails for the 4-lane kernels.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,  7,  8,
                                         15, 16, 17, 31, 32, 33, 63, 64,
                                         65, 100, 127, 128, 129, 1000};

std::vector<std::uint64_t> random_keys(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  return keys;
}

std::vector<double> random_doubles(Rng& rng, std::size_t n) {
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(-10.0, 10.0);
  return xs;
}

TEST(SimdEquivalence, IndexedHashMinMatchesScalar) {
  Rng rng(0x5EEDF00Du);
  for (const std::size_t n : kSizes) {
    const auto keys = random_keys(rng, n);
    for (const std::uint64_t h : {0ULL, 7ULL, 255ULL}) {
      const std::uint64_t dispatched =
          simd::indexed_hash_min(keys.data(), n, h);
      EXPECT_EQ(dispatched, simd::indexed_hash_min_scalar(keys.data(), n, h))
          << "n=" << n << " h=" << h;
      // And both must agree with the one-key hash the rest of the
      // codebase uses.
      std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
      for (const std::uint64_t k : keys) {
        expected = std::min(expected, indexed_hash(k, h));
      }
      ASSERT_EQ(dispatched, expected) << "n=" << n << " h=" << h;
    }
  }
}

TEST(SimdEquivalence, CountEqualMatchesScalarAllWidths) {
  Rng rng(0xC0117EAu);
  for (const std::size_t n : kSizes) {
    // ~50% agreement so both branches of the comparison are exercised.
    std::vector<std::uint64_t> a64 = random_keys(rng, n);
    std::vector<std::uint64_t> b64 = a64;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < 0.5) b64[i] = rng();
    }
    EXPECT_EQ(simd::count_equal_u64(a64.data(), b64.data(), n),
              simd::count_equal_u64_scalar(a64.data(), b64.data(), n));
  }
}

TEST(SimdEquivalence, FloatKernelsBitIdenticalToScalar) {
  Rng rng(0xF10A7u);
  for (const std::size_t n : kSizes) {
    const auto a = random_doubles(rng, n);
    const auto b = random_doubles(rng, n);
    // Bit-identical, not approximately equal: both paths define the same
    // 4-lane blocked summation order.
    EXPECT_EQ(simd::squared_distance(a.data(), b.data(), n),
              simd::squared_distance_scalar(a.data(), b.data(), n))
        << "n=" << n;
  }
}

// Sizes for the zero-block kernels: kSizes, plus sizes either side of
// one and two 64-block mask words (256 and 512 elements).
std::vector<std::size_t> block_sizes() {
  std::vector<std::size_t> sizes = kSizes;
  for (const std::size_t n : {252, 253, 255, 256, 257, 259, 260, 300, 511,
                              512, 513, 516}) {
    sizes.push_back(n);
  }
  return sizes;
}

/// Values that are zero, with either sign, about `zero_share` of the
/// time, and otherwise ordinary, subnormal, infinite or NaN, of either
/// sign.
std::vector<double> zero_heavy(Rng& rng, std::size_t n, double zero_share) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> odd{1.5, -2.25, tiny, -tiny, 1e-310,
                                inf, -inf, nan, -nan};
  std::vector<double> xs(n);
  for (auto& x : xs) {
    if (rng.uniform() < zero_share) {
      x = rng.uniform() < 0.5 ? 0.0 : -0.0;
    } else {
      x = odd[rng.below(odd.size())];
    }
  }
  return xs;
}

/// Finite values, zero (either sign) about `zero_share` of the time.
std::vector<double> sparse_doubles(Rng& rng, std::size_t n,
                                   double zero_share) {
  std::vector<double> xs = random_doubles(rng, n);
  for (auto& x : xs) {
    if (rng.uniform() < zero_share) x = rng.uniform() < 0.5 ? 0.0 : -0.0;
  }
  return xs;
}

/// The block mask by its definition: bit b is set when some element of
/// block b has nonzero bits once the sign bit is dropped.
std::vector<std::uint64_t> mask_by_definition(const double* x,
                                              std::size_t n) {
  std::vector<std::uint64_t> mask(simd::block_mask_words(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if ((std::bit_cast<std::uint64_t>(x[i]) << 1) != 0) {
      mask[i / 256] |= std::uint64_t{1} << ((i / 4) % 64);
    }
  }
  return mask;
}

/// nonzero_blocks(x, n) into a buffer that starts out all ones, so a
/// word the kernel fails to write shows.
std::vector<std::uint64_t> mask_of(const double* x, std::size_t n) {
  std::vector<std::uint64_t> mask(simd::block_mask_words(n), ~0ULL);
  simd::nonzero_blocks(x, n, mask.data());
  return mask;
}

TEST(SimdEquivalence, NonzeroBlocksMatchesDefinition) {
  Rng rng(0xB10C5u);
  for (const std::size_t n : block_sizes()) {
    for (const double zero_share : {0.0, 0.5, 0.95, 1.0}) {
      const auto x = zero_heavy(rng, n, zero_share);
      EXPECT_EQ(mask_of(x.data(), n), mask_by_definition(x.data(), n))
          << "n=" << n << " zero_share=" << zero_share;
    }
  }
}

/// Masks for a pair of vectors that mark at least their nonzero blocks,
/// each named for the test message.
struct MaskCase {
  const char* name;
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
};

std::vector<MaskCase> superset_masks(Rng& rng, const double* a,
                                     const double* b, std::size_t n) {
  const std::size_t words = simd::block_mask_words(n);
  MaskCase exact{"exact", mask_by_definition(a, n), mask_by_definition(b, n)};
  MaskCase superset{"superset", exact.a, exact.b};
  for (std::size_t w = 0; w < words; ++w) {
    superset.a[w] |= rng();
    superset.b[w] |= rng();
  }
  MaskCase ones{"all ones", std::vector<std::uint64_t>(words, ~0ULL),
                std::vector<std::uint64_t>(words, ~0ULL)};
  return {exact, superset, ones};
}

TEST(SimdEquivalence, SquaredDistanceBlocksMatchesDense) {
  Rng rng(0xD15Bu);
  for (const std::size_t n : block_sizes()) {
    for (const double zero_share : {0.0, 0.6, 0.9, 1.0}) {
      const auto a = sparse_doubles(rng, n, zero_share);
      const auto b = sparse_doubles(rng, n, zero_share);
      const double dense = simd::squared_distance(a.data(), b.data(), n);
      for (const MaskCase& masks :
           superset_masks(rng, a.data(), b.data(), n)) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(simd::squared_distance_blocks(
                      a.data(), masks.a.data(), b.data(), masks.b.data(), n)),
                  std::bit_cast<std::uint64_t>(dense))
            << "n=" << n << " zero_share=" << zero_share << " " << masks.name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      simd::squared_distance_blocks_scalar(
                          a.data(), masks.a.data(), b.data(), masks.b.data(),
                          n)),
                  std::bit_cast<std::uint64_t>(dense))
            << "n=" << n << " zero_share=" << zero_share << " " << masks.name;
      }
    }
  }
}

TEST(SimdEquivalence, SquaredDistanceBlocksReadsATailOnlyMask) {
  // Vectors that are zero but for their last block, under masks that
  // mark only that block: the last block is short when n % 4 != 0.
  Rng rng(0x7A11u);
  for (const std::size_t n : block_sizes()) {
    if (n == 0) continue;
    const std::size_t last = (n - 1) / 4;
    auto a = sparse_doubles(rng, n, 1.0);
    auto b = sparse_doubles(rng, n, 1.0);
    for (std::size_t i = last * 4; i < n; ++i) {
      a[i] = rng.uniform(-3.0, 3.0);
      b[i] = rng.uniform(-3.0, 3.0);
    }
    std::vector<std::uint64_t> mask(simd::block_mask_words(n), 0);
    mask[last / 64] = std::uint64_t{1} << (last % 64);
    const double dense = simd::squared_distance(a.data(), b.data(), n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd::squared_distance_blocks(
                  a.data(), mask.data(), b.data(), mask.data(), n)),
              std::bit_cast<std::uint64_t>(dense))
        << "n=" << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd::squared_distance_blocks_scalar(
                  a.data(), mask.data(), b.data(), mask.data(), n)),
              std::bit_cast<std::uint64_t>(dense))
        << "n=" << n;
  }
}

#if defined(__x86_64__)

// Start offsets, in elements, of the AVX2 cases: the buffer's first
// element, then 1-3 elements in, so the 32-byte loads start at every
// 8-byte phase.
constexpr std::size_t kMaxOffset = 3;

constexpr const char* kNoAvx2 =
    "this CPU has no AVX2, so the kernels run their scalar twins";

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

TEST(SimdEquivalence, Avx2IndexedHashMinMatchesScalarAtEveryOffset) {
  if (!cpu_has_avx2()) GTEST_SKIP() << kNoAvx2;
  Rng rng(0xA7C2u);
  for (const std::size_t n : kSizes) {
    const auto buffer = random_keys(rng, n + kMaxOffset);
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const std::uint64_t* keys = buffer.data() + off;
      for (const std::uint64_t h : {0ULL, 7ULL, 255ULL}) {
        EXPECT_EQ(simd::indexed_hash_min_avx2(keys, n, h),
                  simd::indexed_hash_min_scalar(keys, n, h))
            << "n=" << n << " offset=" << off << " h=" << h;
      }
    }
  }
}

TEST(SimdEquivalence, Avx2CountEqualMatchesScalarAtEveryOffset) {
  if (!cpu_has_avx2()) GTEST_SKIP() << kNoAvx2;
  Rng rng(0xA7C3u);
  for (const std::size_t n : kSizes) {
    const auto a = random_keys(rng, n + kMaxOffset);
    auto b = a;
    for (auto& x : b) {
      if (rng.uniform() < 0.5) x = rng();
    }
    for (std::size_t off_a = 0; off_a <= kMaxOffset; ++off_a) {
      for (std::size_t off_b = 0; off_b <= kMaxOffset; ++off_b) {
        const std::uint64_t* pa = a.data() + off_a;
        const std::uint64_t* pb = b.data() + off_b;
        EXPECT_EQ(simd::count_equal_u64_avx2(pa, pb, n),
                  simd::count_equal_u64_scalar(pa, pb, n))
            << "n=" << n << " offsets=" << off_a << "," << off_b;
      }
    }
  }
}

TEST(SimdEquivalence, Avx2SquaredDistanceBitIdenticalAtEveryOffset) {
  if (!cpu_has_avx2()) GTEST_SKIP() << kNoAvx2;
  Rng rng(0xA7C4u);
  for (const std::size_t n : kSizes) {
    const auto a = random_doubles(rng, n + kMaxOffset);
    const auto b = random_doubles(rng, n + kMaxOffset);
    for (std::size_t off_a = 0; off_a <= kMaxOffset; ++off_a) {
      for (std::size_t off_b = 0; off_b <= kMaxOffset; ++off_b) {
        const double* pa = a.data() + off_a;
        const double* pb = b.data() + off_b;
        EXPECT_EQ(simd::squared_distance_avx2(pa, pb, n),
                  simd::squared_distance_scalar(pa, pb, n))
            << "n=" << n << " offsets=" << off_a << "," << off_b;
      }
    }
  }
}

TEST(SimdEquivalence, Avx2SquaredDistanceBlocksBitIdenticalAtEveryOffset) {
  if (!cpu_has_avx2()) GTEST_SKIP() << kNoAvx2;
  Rng rng(0xA7C6u);
  for (const std::size_t n : block_sizes()) {
    const auto a = sparse_doubles(rng, n + kMaxOffset, 0.7);
    const auto b = sparse_doubles(rng, n + kMaxOffset, 0.7);
    for (std::size_t off_a = 0; off_a <= kMaxOffset; ++off_a) {
      for (std::size_t off_b = 0; off_b <= kMaxOffset; ++off_b) {
        const double* pa = a.data() + off_a;
        const double* pb = b.data() + off_b;
        const double dense = simd::squared_distance_scalar(pa, pb, n);
        for (const MaskCase& masks : superset_masks(rng, pa, pb, n)) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(
                        simd::squared_distance_blocks_avx2(
                            pa, masks.a.data(), pb, masks.b.data(), n)),
                    std::bit_cast<std::uint64_t>(dense))
              << "n=" << n << " offsets=" << off_a << "," << off_b << " "
              << masks.name;
        }
      }
    }
  }
}

#endif  // __x86_64__

TEST(SimdEquivalence, BatchedMinHashMatchesStreamingAdd) {
  Rng rng(0x314159u);
  for (const std::size_t n : {0, 1, 3, 4, 5, 17, 100, 513}) {
    const auto keys = random_keys(rng, static_cast<std::size_t>(n));
    for (const std::size_t hashes : {1, 2, 7, 16, 64, 128}) {
      const MinHashSignature batched = MinHashSignature::of(keys, hashes);
      MinHashSignature streamed(hashes);
      for (const auto k : keys) streamed.add(k);
      ASSERT_EQ(batched.num_hashes(), streamed.num_hashes());
      ASSERT_EQ(batched.empty(), streamed.empty());
      for (std::size_t h = 0; h < hashes; ++h) {
        ASSERT_EQ(batched.min_at(h), streamed.min_at(h))
            << "n=" << n << " hashes=" << hashes << " h=" << h;
      }
    }
  }
}

TEST(SimdEquivalence, JaccardEstimateMatchesSlotwiseReference) {
  Rng rng(0xACCA12Du);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t hashes = 1 + rng.below(200);
    auto keys_a = random_keys(rng, 50 + rng.below(200));
    auto keys_b = keys_a;
    // Perturb a random suffix so similarity spans (0, 1).
    const std::size_t changed = rng.below(keys_b.size());
    for (std::size_t i = 0; i < changed; ++i) keys_b[i] = rng();
    const auto sig_a = MinHashSignature::of(keys_a, hashes);
    const auto sig_b = MinHashSignature::of(keys_b, hashes);
    std::size_t agree = 0;
    for (std::size_t h = 0; h < hashes; ++h) {
      if (sig_a.min_at(h) == sig_b.min_at(h)) ++agree;
    }
    const double expected =
        static_cast<double>(agree) / static_cast<double>(hashes);
    EXPECT_EQ(sig_a.estimate_jaccard(sig_b), expected);
  }
}

}  // namespace
}  // namespace bohr
