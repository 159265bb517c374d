// Property tests for max-min fair flow allocation: feasibility,
// bottleneck tightness, and water-filling fairness of the reference
// allocator (flow_oracle), which the simulator matches bit for bit, on
// random instances, small ones and the wide_wan benchmark's 64-site
// shapes; and byte conservation of the simulator itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "flow_oracle.h"
#include "net/transfer.h"

namespace bohr::net {
namespace {

struct Instance {
  WanTopology topo;
  std::vector<Flow> flows;
};

/// Small random instances (3-8 sites, 2-13 flows), or the wide_wan
/// benchmark's scale: 64 sites in three bandwidth tiers, with shuffle
/// flows f_i * r_j all-to-all or into 19 receivers (an LP vertex
/// placement).
enum class Shape { kSmall, kWideAllToAll, kWideReceivers };
constexpr Shape kShapes[] = {Shape::kSmall, Shape::kWideAllToAll,
                             Shape::kWideReceivers};
constexpr const char* kShapeNames[] = {"small", "64-site all-to-all",
                                       "64-site 19 receivers"};

/// Instances of `shape` a property runs on.
std::uint64_t seeds_of(Shape shape, std::uint64_t small, std::uint64_t wide) {
  return shape == Shape::kSmall ? small : wide;
}

Instance random_instance(std::uint64_t seed, Shape shape = Shape::kSmall) {
  Rng rng(seed);
  if (shape != Shape::kSmall) {
    constexpr std::size_t kSites = 64;
    std::vector<Site> sites(kSites);
    for (std::size_t s = 0; s < kSites; ++s) {
      const double tier = s % 3 == 0 ? 5.0 : (s % 3 == 1 ? 2.0 : 1.0);
      sites[s] = Site{std::to_string(s), tier * 125e6, tier * 250e6};
    }
    std::vector<SiteId> receivers(kSites);
    for (SiteId s = 0; s < kSites; ++s) receivers[s] = s;
    if (shape == Shape::kWideReceivers) {
      rng.shuffle(receivers);
      receivers.resize(19);
    }
    std::vector<double> fraction(kSites);
    for (double& r : fraction) r = rng.uniform(0.5, 1.5);
    std::vector<Flow> flows;
    for (SiteId i = 0; i < kSites; ++i) {
      const double shuffle_bytes = rng.uniform(1e7, 1e9);
      for (const SiteId j : receivers) {
        if (i == j) continue;
        flows.push_back(Flow{i, j, shuffle_bytes * fraction[j] /
                                       static_cast<double>(receivers.size()),
                             0.0});
      }
    }
    return {WanTopology(std::move(sites)), std::move(flows)};
  }
  const std::size_t n_sites = 3 + rng.below(6);
  std::vector<Site> sites;
  for (std::size_t s = 0; s < n_sites; ++s) {
    sites.push_back(Site{"s" + std::to_string(s), rng.uniform(5.0, 100.0),
                         rng.uniform(5.0, 100.0)});
  }
  WanTopology topo(std::move(sites));
  std::vector<Flow> flows;
  const std::size_t n_flows = 2 + rng.below(12);
  for (std::size_t f = 0; f < n_flows; ++f) {
    const SiteId src = rng.below(n_sites);
    SiteId dst = rng.below(n_sites);
    if (dst == src) dst = (dst + 1) % n_sites;
    flows.push_back(Flow{src, dst, rng.uniform(10.0, 500.0), 0.0});
  }
  return {std::move(topo), std::move(flows)};
}

TEST(MaxMinPropertyTest, RatesAreFeasibleOnRandomInstances) {
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 0; seed < seeds_of(shape, 40, 4); ++seed) {
      SCOPED_TRACE(kShapeNames[static_cast<int>(shape)]);
      const Instance inst = random_instance(seed, shape);
      const auto rates = oracle::max_min_rates(inst.topo, inst.flows);
      std::vector<double> up(inst.topo.site_count(), 0.0);
      std::vector<double> down(inst.topo.site_count(), 0.0);
      for (std::size_t f = 0; f < inst.flows.size(); ++f) {
        EXPECT_GT(rates[f], 0.0) << "seed " << seed;
        up[inst.flows[f].src] += rates[f];
        down[inst.flows[f].dst] += rates[f];
      }
      for (SiteId s = 0; s < inst.topo.site_count(); ++s) {
        EXPECT_LE(up[s], inst.topo.uplink(s) * (1 + 1e-9)) << "seed " << seed;
        EXPECT_LE(down[s], inst.topo.downlink(s) * (1 + 1e-9))
            << "seed " << seed;
      }
    }
  }
}

TEST(MaxMinPropertyTest, EveryFlowHasASaturatedLink) {
  // Max-min optimality: each flow crosses at least one link that is
  // fully utilized (otherwise its rate could grow).
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 0; seed < seeds_of(shape, 40, 4); ++seed) {
      SCOPED_TRACE(kShapeNames[static_cast<int>(shape)]);
      const Instance inst = random_instance(seed, shape);
      const auto rates = oracle::max_min_rates(inst.topo, inst.flows);
      std::vector<double> up(inst.topo.site_count(), 0.0);
      std::vector<double> down(inst.topo.site_count(), 0.0);
      for (std::size_t f = 0; f < inst.flows.size(); ++f) {
        up[inst.flows[f].src] += rates[f];
        down[inst.flows[f].dst] += rates[f];
      }
      for (std::size_t f = 0; f < inst.flows.size(); ++f) {
        const double up_util =
            up[inst.flows[f].src] / inst.topo.uplink(inst.flows[f].src);
        const double down_util =
            down[inst.flows[f].dst] / inst.topo.downlink(inst.flows[f].dst);
        EXPECT_GT(std::max(up_util, down_util), 1.0 - 1e-6)
            << "seed " << seed << " flow " << f;
      }
    }
  }
}

TEST(MaxMinPropertyTest, IncreasingOneRateRequiresDecreasingASmallerOne) {
  // Water-filling characterization: a flow's rate is limited by a link
  // where it is among the largest shares — no flow on a saturated link
  // both exceeds it and could donate.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Instance inst = random_instance(seed);
    const auto rates = oracle::max_min_rates(inst.topo, inst.flows);
    // For each flow, find its binding link; every other flow on that
    // link with a larger rate would have to shrink for this one to grow,
    // which max-min forbids unless the other is larger (it is).
    for (std::size_t f = 0; f < inst.flows.size(); ++f) {
      double up_total = 0.0;
      double down_total = 0.0;
      for (std::size_t g = 0; g < inst.flows.size(); ++g) {
        if (inst.flows[g].src == inst.flows[f].src) up_total += rates[g];
        if (inst.flows[g].dst == inst.flows[f].dst) down_total += rates[g];
      }
      const bool up_binding =
          up_total >= inst.topo.uplink(inst.flows[f].src) * (1 - 1e-6);
      const bool down_binding =
          down_total >= inst.topo.downlink(inst.flows[f].dst) * (1 - 1e-6);
      EXPECT_TRUE(up_binding || down_binding) << "seed " << seed;
    }
  }
}

TEST(MaxMinPropertyTest, SimulationConservesBytes) {
  // Total bytes delivered equals total bytes requested: finish times
  // integrate the rate exactly.
  for (const Shape shape : kShapes) {
    // One wide instance each: all-to-all has ~4,000 completion events.
    for (std::uint64_t seed = 100; seed < 100 + seeds_of(shape, 20, 1);
         ++seed) {
      SCOPED_TRACE(kShapeNames[static_cast<int>(shape)]);
      const Instance inst = random_instance(seed, shape);
      const auto results = simulate_flows(inst.topo, inst.flows);
      for (std::size_t f = 0; f < inst.flows.size(); ++f) {
        ASSERT_GT(results[f].finish_time, 0.0);
        // mean_rate * duration == bytes (by construction of mean_rate);
        // sanity: duration at least bytes / min(cap).
        const double cap = std::min(inst.topo.uplink(inst.flows[f].src),
                                    inst.topo.downlink(inst.flows[f].dst));
        EXPECT_GE(results[f].finish_time + 1e-9, inst.flows[f].bytes / cap)
            << "seed " << seed;
      }
    }
  }
}

TEST(MaxMinPropertyTest, SingleFlowGetsFullBottleneck) {
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    Instance inst = random_instance(seed);
    inst.flows.resize(1);
    const auto rates = oracle::max_min_rates(inst.topo, inst.flows);
    const double cap = std::min(inst.topo.uplink(inst.flows[0].src),
                                inst.topo.downlink(inst.flows[0].dst));
    EXPECT_NEAR(rates[0], cap, cap * 1e-9);
  }
}

}  // namespace
}  // namespace bohr::net
