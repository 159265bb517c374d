// Deterministic multi-tenant arrival process for the serving loop.
//
// Each tenant is an independent Poisson stream over the run clock:
// exponential inter-arrival gaps at `arrival_rate_qps`, query popularity
// Zipf-skewed over datasets and group-by types (tenants rotate the rank
// order so they favour different datasets), and a heavy-tailed
// bounded-Pareto work multiplier modeling the small-queries-dominate /
// occasional-monster job-size mix of shared clusters. Everything derives
// from (seed, tenant) RNG streams, so the merged trace is byte-identical
// run to run and independent of thread count.
#pragma once

#include <cstdint>
#include <vector>

namespace bohr::serve {

struct ArrivalConfig {
  std::size_t tenants = 4;
  /// Mean query arrival rate per tenant (queries/second, run clock).
  double arrival_rate_qps = 2.0;
  /// Length of the admission window; arrivals past it are not generated.
  double duration_seconds = 60.0;
  /// Zipf skew of dataset popularity (0 = uniform).
  double dataset_skew = 1.1;
  /// Zipf skew of query-type (group-by) popularity within a dataset.
  double type_skew = 0.8;
  /// Bounded-Pareto job-size multiplier: tail index alpha and cap.
  /// alpha in (1, 2) gives the heavy-but-integrable tail of real mixes.
  double work_alpha = 1.5;
  double work_max = 8.0;
  std::uint64_t seed = 1;

  /// Mean number of arrivals the config generates.
  double expected_arrivals() const {
    return static_cast<double>(tenants) * arrival_rate_qps * duration_seconds;
  }
};

/// The most expected arrivals a config may ask for. The whole trace is
/// held in memory, so a larger window or rate is refused, not generated.
inline constexpr double kMaxExpectedArrivals = 1e6;

/// One admitted query. `seq` is the global canonical sequence number in
/// merged (time, tenant) order — per-query RNG streams and the latency
/// digest both key off it, never off scheduling order.
struct QueryArrival {
  double time = 0.0;
  std::size_t tenant = 0;
  std::size_t dataset = 0;
  std::size_t type_spec = 0;
  double work_scale = 1.0;
  std::size_t seq = 0;
};

/// Generates the merged arrival trace over `n_datasets` datasets, where
/// dataset `a` has `types_per_dataset[a]` > 0 query-type specs. Sorted by
/// (time, tenant); deterministic per config. Throws ContractViolation
/// when config.expected_arrivals() exceeds kMaxExpectedArrivals.
std::vector<QueryArrival> generate_arrivals(
    const ArrivalConfig& config, std::size_t n_datasets,
    const std::vector<std::size_t>& types_per_dataset);

}  // namespace bohr::serve
