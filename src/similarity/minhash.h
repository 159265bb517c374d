// MinHash signatures for fast Jaccard estimation (Broder '97).
//
// Signature construction is batched: `of()` runs each hash function
// across the whole key block in one pass (a fused hash+min-reduce kernel,
// src/common/simd.h) instead of evaluating every hash function per key.
// Bit-identical to the streaming `add()` path — the per-slot minimum is
// order-independent and the hashing is exact integer math. `add()` and
// `min_at()` stay as the tests' references for `of()` and
// `estimate_jaccard()`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bohr::similarity {

/// MinHash signature: one minimum per hash function. Two signatures'
/// agreement fraction is an unbiased estimator of Jaccard similarity.
class MinHashSignature {
 public:
  /// Empty signature with `num_hashes` functions (all mins = max).
  explicit MinHashSignature(std::size_t num_hashes);

  /// Builds the signature of a key set in one batched pass per hash
  /// function (hash H functions across the key block, not H passes per
  /// key).
  static MinHashSignature of(std::span<const std::uint64_t> keys,
                             std::size_t num_hashes);

  /// Folds one key into the signature (streaming construction).
  void add(std::uint64_t key);

  std::size_t num_hashes() const { return mins_.size(); }
  std::uint64_t min_at(std::size_t h) const;
  bool empty() const { return empty_; }

  /// Jaccard estimate = fraction of agreeing hash slots (packed 64-bit
  /// equality count). Signatures must have equal length. Two empty
  /// signatures estimate 0.
  double estimate_jaccard(const MinHashSignature& other) const;

 private:
  std::vector<std::uint64_t> mins_;
  bool empty_ = true;
};

}  // namespace bohr::similarity
