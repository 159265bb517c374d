#include "engine/partitioner.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"

namespace bohr::engine {

namespace {

/// Below this many keys std::sort beats the radix sort's fixed cost of
/// eight 256-bucket histograms: timed on random 64-bit keys on a 4-vCPU
/// x86-64 VM, the two crossed over between 1,024 and 2,000 keys.
constexpr std::size_t kRadixMinKeys = 1024;

/// Sorts `keys` ascending. 64-bit integers have one sorted order, so
/// this is std::sort's result: an LSD radix sort on 8-bit digits, whose
/// one counting pass fills all eight histograms, and which skips a
/// digit every key shares.
void sort_keys(RecordStream& keys) {
  if (keys.size() < kRadixMinKeys) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  constexpr int kDigits = 8;
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (const std::uint64_t key : keys) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  RecordStream buffer(keys.size());
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    std::array<std::size_t, 256>& count = counts[d];
    if (count[(keys.front() >> shift) & 0xFF] == keys.size()) continue;
    std::size_t offset = 0;
    for (std::size_t& c : count) {
      const std::size_t here = c;
      c = offset;
      offset += here;
    }
    for (const std::uint64_t key : keys) {
      buffer[count[(key >> shift) & 0xFF]++] = key;
    }
    keys.swap(buffer);
  }
}

}  // namespace

std::vector<RecordStream> make_partitions(
    std::span<const std::uint64_t> records, std::size_t partition_records,
    PartitionPolicy policy) {
  BOHR_EXPECTS(partition_records > 0);
  std::vector<RecordStream> partitions;
  if (records.empty()) return partitions;

  RecordStream working(records.begin(), records.end());
  if (policy == PartitionPolicy::CubeSorted) sort_keys(working);
  const std::size_t count =
      (working.size() + partition_records - 1) / partition_records;
  partitions.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t begin = p * partition_records;
    const std::size_t end = std::min(begin + partition_records, working.size());
    partitions.emplace_back(working.begin() + static_cast<std::ptrdiff_t>(begin),
                            working.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return partitions;
}

ReduceBucketMap ReduceBucketMap::from_fractions(
    const std::vector<double>& fractions, std::size_t n_buckets) {
  BOHR_EXPECTS(!fractions.empty());
  BOHR_EXPECTS(n_buckets >= fractions.size());
  double total = 0.0;
  for (const double f : fractions) {
    BOHR_EXPECTS(f >= -1e-9);
    total += f;
  }
  BOHR_EXPECTS(std::abs(total - 1.0) < 1e-6);

  // Largest-remainder apportionment: every site gets floor(f * B)
  // buckets, then the leftovers go to the largest fractional parts
  // (ties to the lower site id) — deterministic in the inputs.
  const std::size_t n = fractions.size();
  std::vector<std::size_t> counts(n, 0);
  std::vector<std::pair<double, std::size_t>> remainders(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota =
        std::max(0.0, fractions[i]) * static_cast<double>(n_buckets);
    counts[i] = static_cast<std::size_t>(quota);
    remainders[i] = {quota - static_cast<double>(counts[i]), i};
    assigned += counts[i];
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t k = 0; assigned < n_buckets; ++k) {
    ++counts[remainders[k % n].second];
    ++assigned;
  }

  ReduceBucketMap map;
  map.site_count = n;
  map.owner.reserve(n_buckets);
  for (std::size_t i = 0; i < n; ++i) {
    map.owner.insert(map.owner.end(), counts[i],
                     static_cast<std::uint32_t>(i));
  }
  return map;
}

std::vector<double> ReduceBucketMap::to_fractions() const {
  BOHR_EXPECTS(site_count > 0 && !owner.empty());
  std::vector<double> fractions(site_count, 0.0);
  const double weight = 1.0 / static_cast<double>(owner.size());
  for (const std::uint32_t site : owner) {
    BOHR_CHECK(site < site_count);
    fractions[site] += weight;
  }
  return fractions;
}

std::vector<std::size_t> ReduceBucketMap::buckets_at(std::size_t site) const {
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b < owner.size(); ++b) {
    if (owner[b] == site) out.push_back(b);
  }
  return out;
}

void ReduceBucketMap::relocate(std::size_t bucket, std::size_t site) {
  BOHR_EXPECTS(bucket < owner.size());
  BOHR_EXPECTS(site < site_count);
  owner[bucket] = static_cast<std::uint32_t>(site);
}

}  // namespace bohr::engine
