#include "net/transfer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "flow_oracle.h"

namespace bohr::net {
namespace {

WanTopology two_sites(double up_a, double down_a, double up_b, double down_b) {
  return WanTopology({Site{"A", up_a, down_a}, Site{"B", up_b, down_b}});
}

/// Finish time of `flow` alone on an idle network.
double alone_seconds(const WanTopology& topo, const Flow& flow) {
  return simulate_flows(topo, {flow})[0].finish_time;
}

TEST(TransferTest, SingleFlowLimitedByMinOfUpDown) {
  const WanTopology topo = two_sites(10.0, 100.0, 100.0, 4.0);
  // A -> B limited by B's downlink (4 B/s).
  EXPECT_DOUBLE_EQ(alone_seconds(topo, Flow{0, 1, 40.0, 0}), 10.0);
  // B -> A limited by A's downlink? B uplink 100, A downlink 100 -> 100.
  EXPECT_DOUBLE_EQ(alone_seconds(topo, Flow{1, 0, 100.0, 0}), 1.0);
}

TEST(TransferTest, IntraSiteFlowIsFree) {
  const WanTopology topo = two_sites(1, 1, 1, 1);
  EXPECT_DOUBLE_EQ(alone_seconds(topo, Flow{0, 0, 1e9, 0}), 0.0);
}

TEST(TransferTest, MaxMinSharesUplinkEqually) {
  // Two flows from A (uplink 10) to two different receivers with huge
  // downlinks: each should get 5.
  const WanTopology topo = WanTopology({Site{"A", 10, 1000},
                                        Site{"B", 1000, 1000},
                                        Site{"C", 1000, 1000}});
  const std::vector<Flow> flows{{0, 1, 100, 0}, {0, 2, 100, 0}};
  const auto rates = oracle::max_min_rates(topo, flows);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(TransferTest, MaxMinRespectsDownlinkBottleneck) {
  // Flow 1 constrained by its tiny receiver downlink; flow 2 then gets
  // the remaining uplink (max-min, not equal split).
  const WanTopology topo = WanTopology({Site{"A", 10, 1000},
                                        Site{"B", 1000, 2},
                                        Site{"C", 1000, 1000}});
  const std::vector<Flow> flows{{0, 1, 100, 0}, {0, 2, 100, 0}};
  const auto rates = oracle::max_min_rates(topo, flows);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

TEST(TransferTest, RatesNeverExceedCapacity) {
  const WanTopology topo = make_paper_topology(1e6);
  std::vector<Flow> flows;
  for (SiteId i = 0; i < topo.site_count(); ++i) {
    for (SiteId j = 0; j < topo.site_count(); ++j) {
      if (i != j) flows.push_back(Flow{i, j, 1e6, 0});
    }
  }
  const auto rates = oracle::max_min_rates(topo, flows);
  std::vector<double> up(topo.site_count(), 0.0);
  std::vector<double> down(topo.site_count(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    up[flows[f].src] += rates[f];
    down[flows[f].dst] += rates[f];
  }
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    EXPECT_LE(up[s], topo.uplink(s) * (1 + 1e-9));
    EXPECT_LE(down[s], topo.downlink(s) * (1 + 1e-9));
  }
}

TEST(TransferTest, SimulateSingleFlowMatchesClosedForm) {
  const WanTopology topo = two_sites(10, 10, 10, 10);
  const auto results = simulate_flows(topo, {{0, 1, 50, 0}});
  EXPECT_DOUBLE_EQ(results[0].finish_time, 5.0);
  EXPECT_DOUBLE_EQ(results[0].mean_rate, 10.0);
}

TEST(TransferTest, SimulateTwoEqualFlowsShareThenFinishTogether) {
  const WanTopology topo = WanTopology({Site{"A", 10, 1000},
                                        Site{"B", 1000, 1000},
                                        Site{"C", 1000, 1000}});
  const auto results =
      simulate_flows(topo, {{0, 1, 50, 0}, {0, 2, 50, 0}});
  EXPECT_NEAR(results[0].finish_time, 10.0, 1e-6);
  EXPECT_NEAR(results[1].finish_time, 10.0, 1e-6);
}

TEST(TransferTest, ShortFlowFreesBandwidthForLongFlow) {
  // Flows share A's uplink (10): both run at 5 until the short one (25B)
  // finishes at t=5; the long one (75B) then runs at 10: 50B left -> 5s.
  const WanTopology topo = WanTopology({Site{"A", 10, 1000},
                                        Site{"B", 1000, 1000},
                                        Site{"C", 1000, 1000}});
  const auto results =
      simulate_flows(topo, {{0, 1, 25, 0}, {0, 2, 75, 0}});
  EXPECT_NEAR(results[0].finish_time, 5.0, 1e-6);
  EXPECT_NEAR(results[1].finish_time, 10.0, 1e-6);
}

TEST(TransferTest, LateArrivalWaitsForStart) {
  const WanTopology topo = two_sites(10, 10, 10, 10);
  const auto results = simulate_flows(topo, {{0, 1, 50, 3.0}});
  EXPECT_NEAR(results[0].finish_time, 8.0, 1e-9);
}

TEST(TransferTest, ZeroByteFlowCompletesAtStart) {
  const WanTopology topo = two_sites(10, 10, 10, 10);
  const auto results = simulate_flows(topo, {{0, 1, 0.0, 2.0}});
  EXPECT_DOUBLE_EQ(results[0].finish_time, 2.0);
}

TEST(TransferTest, StaggeredArrivalsAreFair) {
  // First flow alone at 10 B/s for 1s (10B done), then shares at 5 B/s.
  // Flow 1: 40B left at t=1 -> 8s more if alone... both have 40B at t=1,
  // they run at 5 each: flow 1 finishes its 40 at t=9, flow 2 too.
  const WanTopology topo = WanTopology({Site{"A", 10, 1000},
                                        Site{"B", 1000, 1000},
                                        Site{"C", 1000, 1000}});
  const auto results =
      simulate_flows(topo, {{0, 1, 50, 0.0}, {0, 2, 40, 1.0}});
  EXPECT_NEAR(results[0].finish_time, 9.0, 1e-6);
  EXPECT_NEAR(results[1].finish_time, 9.0, 1e-6);
}

TEST(TransferTest, AllToAllShuffleCompletes) {
  const WanTopology topo = make_paper_topology(1e6);
  std::vector<Flow> flows;
  for (SiteId i = 0; i < topo.site_count(); ++i) {
    for (SiteId j = 0; j < topo.site_count(); ++j) {
      flows.push_back(Flow{i, j, 5e5, 0});
    }
  }
  const auto results = simulate_flows(topo, flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].src == flows[f].dst) {
      EXPECT_DOUBLE_EQ(results[f].finish_time, 0.0);
    } else {
      EXPECT_GT(results[f].finish_time, 0.0);
      EXPECT_TRUE(std::isfinite(results[f].finish_time));
    }
  }
}

TEST(TransferTest, SlowerTierFinishesLater) {
  const WanTopology topo = make_paper_topology(1e6);
  // Same bytes out of Singapore (tier 5x) vs Seoul (tier 1x).
  const auto results =
      simulate_flows(topo, {{0, 1, 1e6, 0}, {6, 7, 1e6, 0}});
  EXPECT_LT(results[0].finish_time, results[1].finish_time);
}

}  // namespace
}  // namespace bohr::net
