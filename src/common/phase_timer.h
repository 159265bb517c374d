// Global wall-clock phase accounting for the compute hot paths.
//
// Each instrumented phase (probe exchange, DIMSUM scoring, k-means, cube
// aggregation, LP solves, ...) accumulates its elapsed wall time under a
// stable name. Bench binaries snapshot the registry after a run and emit
// it as a JSON object alongside the result tables, so per-phase timing
// travels with every benchmark artifact (and can be diffed modulo these
// timing fields — the payload rows must stay byte-identical across
// thread counts).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace bohr {

/// Adds `seconds` to the accumulator for `name` (thread-safe).
void phase_add(std::string_view name, double seconds);

/// Sorted (name, total seconds, samples) snapshot.
struct PhaseTotal {
  std::string name;
  double seconds = 0.0;
  std::uint64_t samples = 0;
};
std::vector<PhaseTotal> phase_snapshot();

/// The snapshot as a compact JSON object: {"name":{"s":1.5,"n":3},...}.
std::string phase_json();

/// RAII phase timer: accumulates elapsed wall time on destruction.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name) : name_(name) {}
  ~ScopedPhase() { phase_add(name_, timer_.elapsed_seconds()); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  std::string name_;
  WallTimer timer_;
};

}  // namespace bohr
