#include "engine/combiner.h"

#include <algorithm>

namespace bohr::engine {

RecordStream combine(std::span<const std::uint64_t> records) {
  RecordStream keys(records.begin(), records.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace bohr::engine
