// The site-count axis's placement problem: 120 GB over 12 datasets at
// fixed total, spread over a WAN of n_sites sites in three bandwidth
// tiers. bench_sensitivity_scale sweeps it from 8 to 96 sites, and the
// placement golden test pins the simplex's pivot path on its 32-site
// shape, so both read this one generator.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/placement.h"
#include "net/topology.h"

namespace bohr::bench {

inline core::PlacementProblem site_scale_problem(std::size_t n_sites) {
  constexpr std::size_t kDatasets = 12;
  constexpr double kTotalGb = 120.0;
  core::PlacementProblem problem;
  problem.lag_seconds = 30.0;
  // Three bandwidth tiers like the paper's WAN, round-robined over sites.
  std::vector<net::Site> sites(n_sites);
  Rng rng(42);
  for (std::size_t i = 0; i < n_sites; ++i) {
    const double tier = i % 3 == 0 ? 5.0 : (i % 3 == 1 ? 2.0 : 1.0);
    sites[i].name = "site" + std::to_string(i);
    sites[i].uplink_bytes_per_sec = tier * 50e6;
    sites[i].downlink_bytes_per_sec = tier * 50e6;
  }
  problem.topology = net::WanTopology(std::move(sites));
  const double bytes_per_cell =
      kTotalGb * 1e9 / static_cast<double>(kDatasets * n_sites);
  for (std::size_t a = 0; a < kDatasets; ++a) {
    core::DatasetPlacementInput d;
    d.dataset_id = a;
    d.reduction_ratio = rng.uniform(0.05, 0.3);
    d.query_count = static_cast<std::size_t>(rng.range(1, 8));
    for (std::size_t i = 0; i < n_sites; ++i) {
      d.input_bytes.push_back(bytes_per_cell * rng.uniform(0.2, 1.8));
      d.self_similarity.push_back(rng.uniform(0.2, 0.8));
    }
    problem.datasets.push_back(std::move(d));
  }
  return problem;
}

}  // namespace bohr::bench
