#include "similarity/minhash.h"

#include <limits>

#include "common/check.h"
#include "common/hash.h"
#include "common/simd.h"

namespace bohr::similarity {

MinHashSignature::MinHashSignature(std::size_t num_hashes)
    : mins_(num_hashes, std::numeric_limits<std::uint64_t>::max()) {
  BOHR_EXPECTS(num_hashes > 0);
}

MinHashSignature MinHashSignature::of(std::span<const std::uint64_t> keys,
                                      std::size_t num_hashes) {
  MinHashSignature sig(num_hashes);
  if (keys.empty()) return sig;
  sig.empty_ = false;
  // One pass over the key block per hash function: the fused hash +
  // min-reduce kernel streams the keys instead of re-deriving every hash
  // function per key.
  for (std::size_t h = 0; h < num_hashes; ++h) {
    sig.mins_[h] = simd::indexed_hash_min(keys.data(), keys.size(), h);
  }
  return sig;
}

void MinHashSignature::add(std::uint64_t key) {
  empty_ = false;
  for (std::size_t h = 0; h < mins_.size(); ++h) {
    const std::uint64_t v = indexed_hash(key, h);
    if (v < mins_[h]) mins_[h] = v;
  }
}

std::uint64_t MinHashSignature::min_at(std::size_t h) const {
  BOHR_EXPECTS(h < mins_.size());
  return mins_[h];
}

double MinHashSignature::estimate_jaccard(
    const MinHashSignature& other) const {
  BOHR_EXPECTS(mins_.size() == other.mins_.size());
  if (empty_ || other.empty_) return 0.0;
  const std::size_t agree =
      simd::count_equal_u64(mins_.data(), other.mins_.data(), mins_.size());
  return static_cast<double>(agree) / static_cast<double>(mins_.size());
}

}  // namespace bohr::similarity
