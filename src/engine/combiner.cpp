#include "engine/combiner.h"

#include <algorithm>
#include <unordered_map>

namespace bohr::engine {

RecordStream combine(std::span<const KeyValue> records, AggregateOp op) {
  std::unordered_map<std::uint64_t, double> acc;
  acc.reserve(records.size());
  for (const KeyValue& kv : records) {
    auto [it, inserted] = acc.try_emplace(kv.key, 0.0);
    switch (op) {
      case AggregateOp::Sum:
        it->second += kv.value;
        break;
      case AggregateOp::Count:
        it->second += 1.0;
        break;
      case AggregateOp::Max:
        it->second = inserted ? kv.value : std::max(it->second, kv.value);
        break;
      case AggregateOp::Min:
        it->second = inserted ? kv.value : std::min(it->second, kv.value);
        break;
    }
  }
  RecordStream out;
  out.reserve(acc.size());
  for (const auto& [key, value] : acc) out.push_back(KeyValue{key, value});
  std::sort(out.begin(), out.end(),
            [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
  return out;
}

}  // namespace bohr::engine
