// Batched compute kernels for the similarity hot path. Each kernel but
// the zero-block mask (`nonzero_blocks`) has a scalar reference
// (`*_scalar`) and, on x86-64, an AVX2 body (`*_avx2`).
// Every x86-64 build compiles both tiers; the public kernel picks one
// once per process, AVX2 where the CPU has it and the scalar twin
// elsewhere. No build option, flag or environment variable selects the
// tier.
//
// Two contracts make the tiers interchangeable inside a deterministic
// simulator, so one binary gives the same bits on hosts with and without
// AVX2, and a third lets the k-means kernel skip zeros at no cost in
// bits:
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
//  3. *Zero blocks may be skipped.* squared_distance_blocks keeps that
//     order but reads only the blocks (4 elements, the last possibly
//     fewer) that a mask marks. An element that is ±0.0 in both vectors
//     adds d * d = +0.0. Every lane and the running total start at +0.0
//     and add only squares, and in round-to-nearest x + y is -0.0 only
//     when x and y both are, so none of them is ever -0.0; and adding
//     +0.0 to anything but -0.0 leaves its bits as they were. So
//     skipping a block that is zero in both vectors changes no bit, and
//     any mask that marks at least the nonzero blocks gives exactly
//     squared_distance's bits. nonzero_blocks builds the exact mask.
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

// ---- float kernels (4-lane blocked summation, see header comment) ------

/// sum over i of (a[i] - b[i])^2 — the dense k-means distance.
double squared_distance(const double* a, const double* b, std::size_t n);
double squared_distance_scalar(const double* a, const double* b,
                               std::size_t n);

// ---- zero-block skipping (contract 3) -----------------------------------

/// Words in a block mask over n doubles. Block b holds elements
/// [4b, min(4b + 4, n)), so the last block may be short; bit b % 64 of
/// word b / 64 stands for block b.
constexpr std::size_t block_mask_words(std::size_t n) {
  return (n + 255) / 256;
}

/// Writes the block_mask_words(n) words at `blocks`: bit b is set when
/// some element of block b has nonzero bits with the sign dropped (any
/// value but +0.0 and -0.0, NaN included), and every other bit is
/// clear. One tier: gathering each word in a register, it runs k-means
/// as fast as an AVX2 body did.
void nonzero_blocks(const double* x, std::size_t n, std::uint64_t* blocks);

/// squared_distance(a, b, n), reading only the blocks marked in
/// `a_blocks` or `b_blocks` (block masks, as above; bits past the last
/// block are ignored). Bit-identical to squared_distance whenever each
/// mask marks at least its vector's nonzero blocks — the k-means kernel
/// over sparse similarity rows.
double squared_distance_blocks(const double* a, const std::uint64_t* a_blocks,
                               const double* b, const std::uint64_t* b_blocks,
                               std::size_t n);
double squared_distance_blocks_scalar(const double* a,
                                      const std::uint64_t* a_blocks,
                                      const double* b,
                                      const std::uint64_t* b_blocks,
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
double squared_distance_blocks_avx2(const double* a,
                                    const std::uint64_t* a_blocks,
                                    const double* b,
                                    const std::uint64_t* b_blocks,
                                    std::size_t n);
#endif

}  // namespace bohr::simd
