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
// On top of the raw kernels, the suite checks the derived MinHash
// quantities end to end: batched signature construction against the
// streaming path, and the packed Jaccard estimate against a slot-by-slot
// reference.
#include <algorithm>
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
