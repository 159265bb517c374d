#include "engine/combiner.h"

#include <algorithm>

namespace bohr::engine {

RecordStream combine(std::span<const std::uint64_t> records) {
  RecordStream keys(records.begin(), records.end());
  // CubeSorted partitions, and an executor's concatenated key lists of
  // such partitions, arrive sorted; only other inputs need the sort.
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace bohr::engine
