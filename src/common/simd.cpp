// Kernel implementations. This translation unit is compiled with
// -ffp-contract=off (see src/common/CMakeLists.txt): the float kernel's
// scalar/AVX2 equivalence depends on multiply and add rounding separately
// in both tiers.
//
// On x86-64 the AVX2 bodies carry a per-function target("avx2")
// attribute, so the rest of this file and every other translation unit
// stay baseline x86-64, and each public kernel picks its tier once per
// process from the CPU.
#include "common/simd.h"

#include <limits>

#include "common/hash.h"

namespace bohr::simd {

// ---- scalar references --------------------------------------------------

std::uint64_t indexed_hash_min_scalar(const std::uint64_t* keys,
                                      std::size_t n, std::uint64_t h) {
  const std::uint64_t seed = mix64(h + 1);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = mix64(keys[i] ^ seed);
    if (v < best) best = v;
  }
  return best;
}

std::size_t count_equal_u64_scalar(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < n; ++i) agree += a[i] == b[i] ? 1 : 0;
  return agree;
}

double squared_distance_scalar(const double* a, const double* b,
                               std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace bohr::simd

#if defined(__x86_64__)

#include <immintrin.h>

namespace bohr::simd {

// ---- AVX2 helpers -------------------------------------------------------

namespace {

/// 64x64 -> low-64 multiply from 32-bit pieces (AVX2 has no mullo_epi64):
/// lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32).
__attribute__((target("avx2")))
inline __m256i mullo_epi64(__m256i a, __m256i b) {
  const __m256i b_swap = _mm256_shuffle_epi32(b, 0xB1);   // hi<->lo per 64
  const __m256i cross = _mm256_mullo_epi32(a, b_swap);    // alo*bhi, ahi*blo
  const __m256i cross_sum =                               // their sum, low 32
      _mm256_add_epi32(cross, _mm256_shuffle_epi32(cross, 0xB1));
  const __m256i cross_hi =                                // shifted into hi 32
      _mm256_slli_epi64(_mm256_and_si256(
          cross_sum, _mm256_set1_epi64x(0xFFFFFFFFLL)), 32);
  const __m256i lo = _mm256_mul_epu32(a, b);              // alo*blo, full 64
  return _mm256_add_epi64(lo, cross_hi);
}

/// MurmurHash3 finalizer, four lanes at once (matches bohr::mix64).
__attribute__((target("avx2")))
inline __m256i mix64x4(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mullo_epi64(x, _mm256_set1_epi64x(
                         static_cast<long long>(0xFF51AFD7ED558CCDULL)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mullo_epi64(x, _mm256_set1_epi64x(
                         static_cast<long long>(0xC4CEB9FE1A85EC53ULL)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

/// Unsigned 64-bit per-lane minimum (bias by the sign bit, compare signed).
__attribute__((target("avx2")))
inline __m256i min_epu64(__m256i a, __m256i b) {
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i a_less = _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                                            _mm256_xor_si256(a, bias));
  return _mm256_blendv_epi8(b, a, a_less);
}

__attribute__((target("avx2")))
inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Combines a 4-lane accumulator as (l0 + l1) + (l2 + l3) — the order the
/// scalar references use.
__attribute__((target("avx2")))
inline double combine_lanes(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Read once per process. libgcc's check also requires the OS to save
/// the YMM registers. A kernel called from another file's static
/// initializer, before this one runs, reads false and takes the scalar
/// twin, which returns the same bits.
const bool kUseAvx2 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}();

}  // namespace

// ---- AVX2 bodies --------------------------------------------------------

__attribute__((target("avx2")))
std::uint64_t indexed_hash_min_avx2(const std::uint64_t* keys, std::size_t n,
                                    std::uint64_t h) {
  const std::uint64_t seed = mix64(h + 1);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  std::size_t i = 0;
  if (n >= 4) {
    const __m256i seed4 = _mm256_set1_epi64x(static_cast<long long>(seed));
    __m256i best4 = _mm256_set1_epi64x(-1);  // all lanes UINT64_MAX
    for (; i + 4 <= n; i += 4) {
      const __m256i hashed =
          mix64x4(_mm256_xor_si256(load4(keys + i), seed4));
      best4 = min_epu64(best4, hashed);
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best4);
    for (const std::uint64_t lane : lanes) {
      if (lane < best) best = lane;
    }
  }
  for (; i < n; ++i) {
    const std::uint64_t v = mix64(keys[i] ^ seed);
    if (v < best) best = v;
  }
  return best;
}

__attribute__((target("avx2")))
std::size_t count_equal_u64_avx2(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  std::size_t agree = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i eq = _mm256_cmpeq_epi64(load4(a + i), load4(b + i));
    agree += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)))));
  }
  for (; i < n; ++i) agree += a[i] == b[i] ? 1 : 0;
  return agree;
}

__attribute__((target("avx2")))
double squared_distance_avx2(const double* a, const double* b,
                             std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double out = combine_lanes(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    out += d * d;
  }
  return out;
}

// ---- dispatch -----------------------------------------------------------

std::uint64_t indexed_hash_min(const std::uint64_t* keys, std::size_t n,
                               std::uint64_t h) {
  return kUseAvx2 ? indexed_hash_min_avx2(keys, n, h)
                  : indexed_hash_min_scalar(keys, n, h);
}

std::size_t count_equal_u64(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n) {
  return kUseAvx2 ? count_equal_u64_avx2(a, b, n)
                  : count_equal_u64_scalar(a, b, n);
}

double squared_distance(const double* a, const double* b, std::size_t n) {
  return kUseAvx2 ? squared_distance_avx2(a, b, n)
                  : squared_distance_scalar(a, b, n);
}

}  // namespace bohr::simd

#else  // !__x86_64__: the scalar twins are the only tier.

namespace bohr::simd {

std::uint64_t indexed_hash_min(const std::uint64_t* keys, std::size_t n,
                               std::uint64_t h) {
  return indexed_hash_min_scalar(keys, n, h);
}

std::size_t count_equal_u64(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n) {
  return count_equal_u64_scalar(a, b, n);
}

double squared_distance(const double* a, const double* b, std::size_t n) {
  return squared_distance_scalar(a, b, n);
}

}  // namespace bohr::simd

#endif  // __x86_64__
