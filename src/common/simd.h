// Batched compute kernels for the similarity hot path. Each kernel has a
// scalar reference (`*_scalar`) and, on x86-64, an AVX2 body (`*_avx2`).
// Every x86-64 build compiles both tiers; the public kernel picks one
// once per process, AVX2 where the CPU has it and the scalar twin
// elsewhere. No build option, flag or environment variable selects the
// tier.
//
// Two contracts make the tiers interchangeable inside a deterministic
// simulator, so one binary gives the same bits on hosts with and without
// AVX2:
//
//  1. *Integer kernels are exact.* Hashing, min-reduction, and equality
//     counting produce bit-identical results in both tiers — the AVX2
//     body is pure integer math with the same operations in a different
//     width.
//  2. *Float kernels fix the summation order.* Squared distances
//     accumulate into four independent lanes (element i goes to lane
//     i % 4) and combine lanes as (l0 + l1) + (l2 + l3), then add the
//     scalar tail. The scalar reference implements exactly that order, so
//     the AVX2 body (one register = the four lanes) rounds identically.
//     The kernels live in simd.cpp, which is compiled with
//     -ffp-contract=off so neither tier silently fuses multiply-adds.
//
// The equivalence suite (tests/core/simd_equivalence_test.cpp) compares
// the dispatched kernel and each AVX2 body against its scalar twin on
// randomized inputs.
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

#if defined(__x86_64__)
// ---- AVX2 bodies ----------------------------------------------------------

// The public kernels call these only where the CPU has AVX2; anywhere else
// they stop the process with an illegal instruction.
std::uint64_t indexed_hash_min_avx2(const std::uint64_t* keys, std::size_t n,
                                    std::uint64_t h);
std::size_t count_equal_u64_avx2(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n);
double squared_distance_avx2(const double* a, const double* b,
                             std::size_t n);
#endif

}  // namespace bohr::simd
