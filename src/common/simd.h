// Batched compute kernels for the similarity hot path, with a scalar
// reference implementation and an optional AVX2 implementation selected
// at compile time (-DBOHR_ENABLE_AVX2=ON defines BOHR_HAVE_AVX2).
//
// Two contracts make the kernels safe inside a deterministic simulator:
//
//  1. *Integer kernels are exact.* Hashing, min-reduction, and equality
//     counting produce bit-identical results in both implementations —
//     the AVX2 path is pure integer math with the same operations in a
//     different width.
//  2. *Float kernels fix the summation order.* Squared distances
//     accumulate into four independent lanes (element i goes to lane
//     i % 4) and combine lanes as (l0 + l1) + (l2 + l3), then add the
//     scalar tail. The scalar reference implements exactly that order, so
//     the AVX2 path (one register = the four lanes) rounds identically.
//     The kernels live in simd.cpp, which is compiled with
//     -ffp-contract=off so neither path silently fuses multiply-adds.
//
// Every kernel also exposes its `*_scalar` twin unconditionally; the
// equivalence suite (tests/core/simd_equivalence_test.cpp) compares the
// dispatched kernel against the scalar reference on randomized inputs in
// both build configurations.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bohr::simd {

// ---- integer kernels (exact; AVX2 == scalar bit-for-bit) ---------------

/// min over i of indexed_hash(keys[i], h) — the fused hash+min-reduce a
/// MinHash slot needs. Returns UINT64_MAX for n == 0.
std::uint64_t indexed_hash_min(const std::uint64_t* keys, std::size_t n,
                               std::uint64_t h);
std::uint64_t indexed_hash_min_scalar(const std::uint64_t* keys,
                                      std::size_t n, std::uint64_t h);

/// Number of positions where a[i] == b[i] (slot agreement counting for
/// full MinHash signatures).
std::size_t count_equal_u64(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n);
std::size_t count_equal_u64_scalar(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n);

// ---- float kernel (4-lane blocked summation, see header comment) -------

/// sum over i of (a[i] - b[i])^2 — the k-means assignment kernel.
double squared_distance(const double* a, const double* b, std::size_t n);
double squared_distance_scalar(const double* a, const double* b,
                               std::size_t n);

}  // namespace bohr::simd
