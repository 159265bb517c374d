// Records flowing through the map/combine/shuffle/reduce engine.
//
// A record is its key: a 64-bit hash of the attribute combination the
// query groups by (i.e. the dimension-cube cell of the record for that
// query type), so "combinable" and "same cube cell" coincide by
// construction. QCT and data reduction depend only on how many records
// the combiners leave and where they are shuffled, so records carry no
// value; answers that need values come from the cubes.
#pragma once

#include <cstdint>
#include <vector>

namespace bohr::engine {

using RecordStream = std::vector<std::uint64_t>;

}  // namespace bohr::engine
