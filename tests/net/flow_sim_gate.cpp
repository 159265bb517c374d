// Times net::simulate_flows against the whole-flow-scan oracle
// (flow_oracle) on one wide_wan-shaped shuffle, in one process, and
// fails unless both give the same finish-time and rate bits and the
// simulator is at least kMinRatio times faster. The two sides run in
// alternation on the same host, so a slower or busier host moves both
// and their ratio stays put where an absolute time would drift.
//
//   flow_sim_gate
//
// Prints one line with both medians and the ratio. Exit status: 0 pass,
// 1 a check failed.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "flow_oracle.h"
#include "net/faults.h"
#include "net/transfer.h"

namespace {

using bohr::net::Flow;
using bohr::net::SiteId;

constexpr double kBase = 125e6;  // bytes/s of the lowest tier
constexpr SiteId kSites = 64;
constexpr SiteId kReceivers = 19;
constexpr int kReps = 7;
/// Resumed filling reads ~6.5-7.5x in a Release build; refilling from
/// level 0 at every event reads ~3-4.5x (EXPERIMENTS.md, "Host cost —
/// resumed filling").
constexpr double kMinRatio = 5.0;

/// 64 sites in three tiers; every site ships its map output to 19
/// receivers from its own map finish, as wide_wan's LP vertex
/// placements do.
bohr::net::WanTopology wide_wan_topology() {
  std::vector<bohr::net::Site> sites(kSites);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const double tier = s % 3 == 0 ? 5.0 : (s % 3 == 1 ? 2.0 : 1.0);
    sites[s] = {std::to_string(s), tier * kBase, tier * kBase * 2};
  }
  return bohr::net::WanTopology(std::move(sites));
}

std::vector<Flow> wide_wan_shuffle() {
  bohr::Rng rng(19);
  std::vector<double> fraction(kReceivers);
  for (double& r : fraction) r = rng.uniform(0.5, 1.5) / kReceivers;
  std::vector<Flow> flows;
  for (SiteId i = 0; i < kSites; ++i) {
    const double bytes = rng.uniform(1e7, 4e8);
    const double start = rng.uniform(0.0, 2.0);
    for (SiteId j = 0; j < kReceivers; ++j) {
      const SiteId dst = j * kSites / kReceivers;
      if (i != dst) flows.push_back({i, dst, bytes * fraction[j], start});
    }
  }
  return flows;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int run() {
  const bohr::net::WanTopology topo = wide_wan_topology();
  const std::vector<Flow> flows = wide_wan_shuffle();
  const bohr::net::FaultPlan no_faults;
  std::vector<double> sim_s;
  std::vector<double> oracle_s;
  std::vector<bohr::net::FlowResult> got;
  bohr::net::FaultSimReport want;
  using Clock = std::chrono::steady_clock;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    want = bohr::net::oracle::simulate_flows_with_faults(topo, flows, no_faults);
    const auto t1 = Clock::now();
    got = bohr::net::simulate_flows(topo, flows);
    const auto t2 = Clock::now();
    oracle_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    sim_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  }

  std::size_t differ = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    differ += !same_bits(want.flows[f].finish_time, got[f].finish_time) ||
              !same_bits(want.flows[f].mean_rate, got[f].mean_rate);
  }
  const double sim = bohr::percentile(sim_s, 50);
  const double oracle = bohr::percentile(oracle_s, 50);
  const double ratio = oracle / sim;
  std::printf(
      "flow_sim_gate: flows=%zu reps=%d sim_ms=%.3f oracle_ms=%.3f "
      "ratio=%.2f min_ratio=%.2f differing_flows=%zu\n",
      flows.size(), kReps, sim * 1e3, oracle * 1e3, ratio, kMinRatio, differ);
  if (differ > 0) {
    std::fprintf(stderr, "FAIL: %zu flows differ from the oracle\n", differ);
    return 1;
  }
  if (ratio < kMinRatio) {
    std::fprintf(stderr, "FAIL: the simulator is %.2fx the oracle's speed, "
                         "below %.2fx\n", ratio, kMinRatio);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
