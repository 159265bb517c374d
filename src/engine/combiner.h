// Map-side combiner (§1: "the common use of combiners"): aggregates
// records sharing a key into one record before shuffling.
#pragma once

#include <span>

#include "engine/record.h"

namespace bohr::engine {

enum class AggregateOp { Sum, Count, Max, Min };

/// Combines `records` by key with the given op. Output is sorted by key
/// (deterministic). Count outputs the number of occurrences as the value.
RecordStream combine(std::span<const KeyValue> records, AggregateOp op);

}  // namespace bohr::engine
