// Differential test: the per-link progressive filling behind
// simulate_flows_with_faults against the whole-flow scan it replaced
// (flow_oracle), bit for bit, on seeded random
// instances: 2-80 sites, tied and untied capacities, intra-site and
// zero-byte flows, staggered starts, sparse receivers, outages,
// degradations (factor 0 included), kills, resume and restart retry, and
// finite deadlines.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "flow_oracle.h"
#include "net/faults.h"
#include "net/transfer.h"

namespace bohr::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kBase = 125e6;  // bytes/s of the lowest tier

struct Case {
  WanTopology topo;
  std::vector<Flow> flows;
  FaultPlan plan;
  double deadline = kInf;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

WanTopology random_topology(Rng& rng, std::size_t n_sites) {
  std::vector<Site> sites(n_sites);
  const std::uint64_t shape = rng.below(3);
  for (std::size_t s = 0; s < n_sites; ++s) {
    sites[s].name = std::to_string(s);
    if (shape == 0) {  // one tier: every link ties
      sites[s].uplink_bytes_per_sec = kBase;
      sites[s].downlink_bytes_per_sec = 2 * kBase;
    } else if (shape == 1) {  // three tiers round-robin, as in wide_wan
      const double tier = s % 3 == 0 ? 5.0 : (s % 3 == 1 ? 2.0 : 1.0);
      sites[s].uplink_bytes_per_sec = tier * kBase;
      sites[s].downlink_bytes_per_sec = tier * kBase * 2;
    } else {  // untied
      sites[s].uplink_bytes_per_sec = rng.uniform(0.5, 6.0) * kBase;
      sites[s].downlink_bytes_per_sec = rng.uniform(0.5, 12.0) * kBase;
    }
  }
  return WanTopology(std::move(sites));
}

/// Senders x receivers, capped so the oracle stays cheap: all-to-all on
/// a few sites, sparse receivers (the shape LP vertex placements give),
/// or random pairs. src == dst pairs stay in as intra-site flows.
std::vector<std::pair<SiteId, SiteId>> random_pairs(Rng& rng,
                                                    std::size_t n_sites) {
  std::vector<std::pair<SiteId, SiteId>> pairs;
  const std::uint64_t shape = rng.below(3);
  if (shape == 0) {
    const std::size_t k = std::min<std::size_t>(n_sites, 2 + rng.below(7));
    for (SiteId i = 0; i < k; ++i) {
      for (SiteId j = 0; j < k; ++j) pairs.emplace_back(i, j);
    }
  } else if (shape == 1) {
    const std::size_t receivers = 1 + rng.below(3);
    std::vector<SiteId> dsts;
    for (std::size_t r = 0; r < receivers; ++r) {
      dsts.push_back(rng.below(n_sites));
    }
    const std::size_t senders = std::min<std::size_t>(n_sites, 24);
    for (SiteId i = 0; i < senders; ++i) {
      for (const SiteId j : dsts) pairs.emplace_back(i, j);
    }
  } else {
    const std::size_t n = 1 + rng.below(60);
    for (std::size_t f = 0; f < n; ++f) {
      pairs.emplace_back(rng.below(n_sites), rng.below(n_sites));
    }
  }
  return pairs;
}

FaultPlan random_plan(Rng& rng, std::size_t n_sites, double horizon) {
  FaultPlan plan;
  const auto window = [&](double& start, double& end) {
    start = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, horizon);
    end = start + rng.uniform(0.05, horizon / 2);
  };
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    OutageWindow o;
    o.site = rng.below(n_sites);
    window(o.start, o.end);
    plan.outages.push_back(o);
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    LinkDegradation d;
    d.site = rng.below(n_sites);
    window(d.start, d.end);
    const std::uint64_t f = rng.below(4);
    d.factor = f == 0 ? 0.0 : (f == 1 ? 0.5 : rng.uniform(0.05, 1.0));
    const std::uint64_t link = rng.below(3);
    d.uplink = link != 1;
    d.downlink = link != 0;
    plan.degradations.push_back(d);
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    FlowKill k;
    k.time = rng.uniform(0.0, horizon);
    if (rng.bernoulli(0.5)) k.src = rng.below(n_sites);
    if (rng.bernoulli(0.5)) k.dst = rng.below(n_sites);
    plan.kills.push_back(k);
  }
  plan.retry.max_retries = rng.below(4);
  plan.retry.resume = rng.bernoulli(0.5);
  plan.retry.backoff_base_seconds =
      rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.01, 1.0);
  plan.retry.backoff_cap_seconds =
      plan.retry.backoff_base_seconds + rng.uniform(0.0, 4.0);
  return plan;
}

Case random_case(std::uint64_t seed) {
  Rng rng(seed);
  Case c;
  const std::size_t n_sites = 2 + rng.below(79);
  c.topo = random_topology(rng, n_sites);
  const bool tied_bytes = rng.bernoulli(0.5);
  const std::uint64_t starts = rng.below(3);  // together, tied, staggered
  for (const auto& [src, dst] : random_pairs(rng, n_sites)) {
    Flow flow{src, dst, 0.0, 0.0};
    if (!rng.bernoulli(0.1)) {
      flow.bytes = tied_bytes ? static_cast<double>(1 + rng.below(4)) * 1e8
                              : rng.uniform(1e6, 6e8);
    }
    if (starts == 1) flow.start_time = static_cast<double>(rng.below(4)) * 0.5;
    if (starts == 2) flow.start_time = rng.uniform(0.0, 3.0);
    c.flows.push_back(flow);
  }
  if (rng.bernoulli(0.6)) c.plan = random_plan(rng, n_sites, 8.0);
  if (rng.bernoulli(0.3)) c.deadline = rng.uniform(0.0, 6.0);
  return c;
}

void expect_same_report(const FaultSimReport& want, const FaultSimReport& got,
                        const std::string& where) {
  ASSERT_EQ(want.flows.size(), got.flows.size()) << where;
  for (std::size_t f = 0; f < want.flows.size(); ++f) {
    const FaultyFlowResult& w = want.flows[f];
    const FaultyFlowResult& g = got.flows[f];
    SCOPED_TRACE(where + " flow " + std::to_string(f));
    EXPECT_TRUE(same_bits(w.finish_time, g.finish_time));
    EXPECT_TRUE(same_bits(w.mean_rate, g.mean_rate));
    EXPECT_TRUE(same_bits(w.delivered_bytes, g.delivered_bytes));
    EXPECT_TRUE(same_bits(w.delivered_by_deadline, g.delivered_by_deadline));
    EXPECT_EQ(w.retries, g.retries);
    EXPECT_EQ(w.completed, g.completed);
  }
  EXPECT_EQ(want.interruptions, got.interruptions) << where;
  EXPECT_EQ(want.retries, got.retries) << where;
  EXPECT_EQ(want.failures, got.failures) << where;
  EXPECT_TRUE(same_bits(want.makespan, got.makespan)) << where;
}

TEST(FlowDifferentialTest, SimulationMatchesWholeFlowScanBitForBit) {
  std::size_t faulted = 0;
  std::size_t failures = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    const Case c = random_case(seed);
    const std::string where = "seed " + std::to_string(seed);
    const FaultSimReport want =
        oracle::simulate_flows_with_faults(c.topo, c.flows, c.plan, c.deadline);
    const FaultSimReport got =
        simulate_flows_with_faults(c.topo, c.flows, c.plan, c.deadline);
    expect_same_report(want, got, where);
    if (::testing::Test::HasFailure()) return;
    faulted += c.plan.wan_quiet() ? 0 : 1;
    failures += want.failures;
  }
  // The generator must actually reach the faulted paths.
  EXPECT_GT(faulted, 1000u);
  EXPECT_GT(failures, 0u);
}

TEST(FlowDifferentialTest, WideWanShapesMatchBitForBit) {
  // 64 sites in three tiers, shuffle flows f_i * r_j from staggered map
  // finishes into 19 receivers, the wide_wan benchmark's sparse shape.
  // The all-to-all shape would take the oracle seconds; the 4,032-flow
  // pin below covers it.
  Rng rng(64);
  std::vector<Site> sites(64);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const double tier = s % 3 == 0 ? 5.0 : (s % 3 == 1 ? 2.0 : 1.0);
    sites[s] = Site{std::to_string(s), tier * kBase, tier * kBase * 2};
  }
  const WanTopology topo(std::move(sites));
  constexpr std::size_t kReceivers = 19;
  std::vector<double> shuffle_bytes(64);
  std::vector<double> start(64);
  for (std::size_t i = 0; i < 64; ++i) {
    shuffle_bytes[i] = rng.uniform(1e7, 4e8);
    start[i] = rng.uniform(0.0, 2.0);
  }
  std::vector<double> fraction(kReceivers);
  for (double& r : fraction) r = rng.uniform(0.5, 1.5) / kReceivers;
  std::vector<Flow> flows;
  for (SiteId i = 0; i < 64; ++i) {
    for (SiteId j = 0; j < kReceivers; ++j) {
      const SiteId dst = static_cast<SiteId>(j * 64 / kReceivers);
      if (i != dst) {
        flows.push_back({i, dst, shuffle_bytes[i] * fraction[j], start[i]});
      }
    }
  }
  expect_same_report(oracle::simulate_flows_with_faults(topo, flows, {}),
                     simulate_flows_with_faults(topo, flows, {}),
                     "19 receivers");
}

/// A wide_wan-shaped shuffle: 32-64 sites in three tiers, each site
/// sending to 4-12 receivers from its own staggered map finish, so
/// hundreds of flows finish one after another. Every fourth seed gives
/// one site an infinite downlink. With `faulted`, one fault joins: on
/// those seeds a factor-0 degradation of that downlink, whose saturation
/// is then NaN; on the others an outage, a degradation or a kill.
Case wide_shuffle_case(std::uint64_t seed, bool faulted) {
  Rng rng(seed);
  Case c;
  const std::size_t n_sites = 32 + rng.below(33);
  const bool unbounded = seed % 4 == 0;
  const SiteId special = static_cast<SiteId>(rng.below(n_sites));
  std::vector<Site> sites(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    const double tier = s % 3 == 0 ? 5.0 : (s % 3 == 1 ? 2.0 : 1.0);
    const double down = unbounded && s == special ? kInf : tier * kBase * 2;
    sites[s] = Site{std::to_string(s), tier * kBase, down};
  }
  c.topo = WanTopology(std::move(sites));
  for (SiteId i = 0; i < n_sites; ++i) {
    const double start = rng.uniform(0.0, 2.0);
    const double bytes = rng.uniform(1e7, 4e8);
    const std::size_t receivers = 4 + rng.below(9);
    for (std::size_t r = 0; r < receivers; ++r) {
      const SiteId dst = static_cast<SiteId>(rng.below(n_sites));
      c.flows.push_back(
          {i, dst, bytes * rng.uniform(0.5, 1.5) / receivers, start});
    }
  }
  if (!faulted) return c;
  const double start = rng.uniform(0.0, 4.0);
  const double end = start + rng.uniform(0.1, 3.0);
  const std::uint64_t kind = unbounded ? 1 : rng.below(3);
  if (kind == 0) {
    c.plan.outages.push_back({special, start, end});
  } else if (kind == 1) {
    LinkDegradation d;
    d.site = special;
    d.start = start;
    d.end = end;
    d.factor = unbounded || rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.05, 1.0);
    d.uplink = !unbounded && rng.bernoulli(0.5);
    d.downlink = !d.uplink;
    c.plan.degradations.push_back(d);
  } else {
    FlowKill k;
    k.time = start;
    if (rng.bernoulli(0.5)) k.src = special;
    if (rng.bernoulli(0.5)) k.dst = static_cast<SiteId>(rng.below(n_sites));
    c.plan.kills.push_back(k);
  }
  c.plan.retry.max_retries = 1 + rng.below(3);
  c.plan.retry.resume = rng.bernoulli(0.5);
  c.plan.retry.backoff_base_seconds = rng.uniform(0.01, 1.0);
  c.plan.retry.backoff_cap_seconds =
      c.plan.retry.backoff_base_seconds + rng.uniform(0.0, 4.0);
  return c;
}

TEST(FlowDifferentialTest, WideShuffleFamilyMatchesBitForBit) {
  std::size_t flows = 0;
  std::size_t nan_links = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const bool faulted : {false, true}) {
      const Case c = wide_shuffle_case(seed, faulted);
      const std::string where = "seed " + std::to_string(seed) +
                                (faulted ? " faulted" : " fault-free");
      expect_same_report(oracle::simulate_flows_with_faults(c.topo, c.flows,
                                                            c.plan),
                         simulate_flows_with_faults(c.topo, c.flows, c.plan),
                         where);
      if (::testing::Test::HasFailure()) return;
      flows += c.flows.size();
      for (const LinkDegradation& d : c.plan.degradations) {
        nan_links += d.downlink && d.factor == 0.0 &&
                     c.topo.downlink(d.site) == kInf;
      }
    }
  }
  // Hundreds of flows per instance, and NaN saturations are reached.
  EXPECT_GT(flows, 80u * 200u);
  EXPECT_EQ(nan_links, 10u);
}

TEST(FlowDifferentialTest, AllToAllShuffleFinishTimesArePinned) {
  // One 64-site all-to-all shuffle (4,032 flows), too large for the
  // oracle: a crc32 over its finish-time bits, taken from the simulator
  // before filling resumed across completions.
  Rng rng(4032);
  std::vector<Site> sites(64);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const double tier = s % 3 == 0 ? 5.0 : (s % 3 == 1 ? 2.0 : 1.0);
    sites[s] = Site{std::to_string(s), tier * kBase, tier * kBase * 2};
  }
  const WanTopology topo(std::move(sites));
  std::vector<Flow> flows;
  for (SiteId i = 0; i < 64; ++i) {
    const double bytes = rng.uniform(1e7, 4e8);
    const double start = rng.uniform(0.0, 2.0);
    for (SiteId j = 0; j < 64; ++j) {
      if (i != j) {
        flows.push_back({i, j, bytes * rng.uniform(0.5, 1.5) / 63, start});
      }
    }
  }
  ASSERT_EQ(flows.size(), 4032u);
  const std::vector<FlowResult> results = simulate_flows(topo, flows);
  Crc32 crc;
  for (const FlowResult& r : results) {
    crc.update(&r.finish_time, sizeof(r.finish_time));
  }
  EXPECT_EQ(crc.value(), 0x80f1e1fbu);
}

bool throws(const std::function<void()>& call) {
  try {
    call();
  } catch (const ContractViolation&) {
    return true;
  }
  return false;
}

TEST(FlowDifferentialTest, BothSidesRejectTheSameInvalidInputs) {
  const WanTopology topo = make_paper_topology(kBase, 2.0);
  const std::vector<Flow> good = {{0, 1, 1e8, 0.0}, {2, 1, 5e7, 0.5}};
  struct Invalid {
    const char* name;
    Flow flow;
    FaultPlan plan;
    bool rejected;  // what both sides must agree on
  };
  FaultPlan bad_factor;
  bad_factor.degradations.push_back({1, 0.0, 1.0, 1.5});
  FaultPlan bad_window;
  bad_window.outages.push_back({1, 2.0, 2.0});
  FaultPlan dark_stranger;  // the out-of-range flow fails before filling
  dark_stranger.outages.push_back({99, 0.0, 5.0});
  dark_stranger.retry.max_retries = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Invalid> cases = {
      {"src out of range", {99, 1, 1e8, 0.0}, {}, true},
      {"dst out of range", {0, 99, 1e8, 1.0}, {}, true},
      {"negative bytes", {0, 1, -1.0, 0.0}, {}, true},
      {"negative start", {0, 1, 1e8, -1.0}, {}, true},
      {"NaN bytes", {0, 1, nan, 0.0}, {}, true},
      {"NaN start", {0, 1, 1e8, nan}, {}, true},
      // inf - rate * dt stays inf, which passes the completion test.
      {"infinite bytes finish at once", {0, 1, kInf, 0.0}, {}, false},
      {"infinite start", {0, 1, 1e8, kInf}, {}, true},
      {"degradation factor above 1", {0, 1, 1e8, 0.0}, bad_factor, true},
      {"empty outage window", {0, 1, 1e8, 0.0}, bad_window, true},
      {"intra-site flow out of range", {99, 99, 1e8, 0.0}, {}, false},
      {"zero-byte flow out of range", {99, 0, 0.0, 0.0}, {}, false},
      {"dark out-of-range flow abandoned", {99, 1, 1e8, 0.0}, dark_stranger,
       false},
  };
  for (const Invalid& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Flow> flows = good;
    flows.push_back(c.flow);
    const bool oracle_threw = throws(
        [&] { oracle::simulate_flows_with_faults(topo, flows, c.plan); });
    const bool threw =
        throws([&] { simulate_flows_with_faults(topo, flows, c.plan); });
    EXPECT_EQ(oracle_threw, c.rejected);
    EXPECT_EQ(threw, oracle_threw);
  }
}

}  // namespace
}  // namespace bohr::net
