#include "net/topology.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace bohr::net {
namespace {

TEST(TopologyTest, PaperTopologyHasTenRegions) {
  const WanTopology topo = make_paper_topology();
  EXPECT_EQ(topo.site_count(), 10u);
  EXPECT_EQ(topo.site(0).name, "Singapore");
  EXPECT_EQ(topo.site(9).name, "Ireland");
}

TEST(TopologyTest, PaperBandwidthTiers) {
  const double base = 10e6;
  const WanTopology topo = make_paper_topology(base);
  // Singapore/Tokyo/Oregon at 5x base.
  for (SiteId s : {0u, 1u, 2u}) EXPECT_DOUBLE_EQ(topo.uplink(s), 5 * base);
  // Virginia/Ohio/Frankfurt at 2x base (so the top tier is 2.5x theirs).
  for (SiteId s : {3u, 4u, 5u}) EXPECT_DOUBLE_EQ(topo.uplink(s), 2 * base);
  // Remaining four at base.
  for (SiteId s : {6u, 7u, 8u, 9u}) EXPECT_DOUBLE_EQ(topo.uplink(s), base);
  EXPECT_DOUBLE_EQ(topo.uplink(0) / topo.uplink(3), 2.5);
  EXPECT_DOUBLE_EQ(topo.uplink(0) / topo.uplink(6), 5.0);
}

TEST(TopologyTest, DownlinkMultiplier) {
  const WanTopology topo = make_paper_topology(10e6, 2.0);
  EXPECT_DOUBLE_EQ(topo.downlink(6), 2.0 * topo.uplink(6));
}

TEST(TopologyTest, MinUplinkSiteIsBaseTier) {
  const WanTopology topo = make_paper_topology();
  for (SiteId s = 0; s < 6; ++s) EXPECT_GT(topo.uplink(s), topo.uplink(6));
  for (SiteId s = 7; s < 10; ++s) EXPECT_EQ(topo.uplink(s), topo.uplink(6));
}

TEST(TopologyTest, TotalUplink) {
  const WanTopology topo = make_paper_topology(1.0);
  EXPECT_DOUBLE_EQ(topo.total_uplink(), 3 * 5.0 + 3 * 2.0 + 4 * 1.0);
}

TEST(TopologyTest, InvalidSiteThrows) {
  const WanTopology topo = make_paper_topology();
  EXPECT_THROW(topo.site(10), ContractViolation);
}

TEST(TopologyTest, NonPositiveBandwidthRejected) {
  EXPECT_THROW(WanTopology({Site{"x", 0.0, 1.0}}), ContractViolation);
  EXPECT_THROW(make_paper_topology(-5.0), ContractViolation);
}

}  // namespace
}  // namespace bohr::net
