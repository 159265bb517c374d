// Map-side combiner (§1: "the common use of combiners"): aggregates
// records sharing a key into one record before shuffling.
#pragma once

#include <cstdint>
#include <span>

#include "engine/record.h"

namespace bohr::engine {

/// Combines `records` by key: one record per distinct key, sorted by key
/// (deterministic).
RecordStream combine(std::span<const std::uint64_t> records);

}  // namespace bohr::engine
