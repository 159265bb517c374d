// Stable 64-bit hashing used for record keys and MinHash.
//
// These hashes are part of the reproducibility contract: the same input
// data always produces the same cube cells, probe representatives, and
// MinHash signatures across runs and platforms.
#pragma once

#include <cstdint>
#include <string_view>

namespace bohr {

/// FNV-1a over bytes — stable across platforms, good enough dispersion for
/// record keys.
constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Finalizer from MurmurHash3 — turns a weak integer key into a
/// well-dispersed 64-bit value. Bijective.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent combination of two hashes (boost-style, widened to 64-bit).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return seed ^ (mix64(value) + 0x9E3779B97F4A7C15ULL + (seed << 6) +
                 (seed >> 2));
}

/// Family of pairwise-independent hash functions indexed by `i`, as needed
/// by MinHash: h_i(x) = mix64(x ^ seed_i).
constexpr std::uint64_t indexed_hash(std::uint64_t x, std::uint64_t i) {
  return mix64(x ^ mix64(i + 1));
}

}  // namespace bohr
