// WAN topology: the set of sites and their access-link capacities.
#pragma once

#include <vector>

#include "net/site.h"

namespace bohr::net {

/// Immutable-after-construction collection of sites. The paper's evaluation
/// uses ten AWS EC2 regions with three bandwidth tiers; see
/// `make_paper_topology`.
class WanTopology {
 public:
  WanTopology() = default;
  explicit WanTopology(std::vector<Site> sites);

  std::size_t site_count() const { return sites_.size(); }
  const Site& site(SiteId id) const;

  double uplink(SiteId id) const { return site(id).uplink_bytes_per_sec; }
  double downlink(SiteId id) const { return site(id).downlink_bytes_per_sec; }

  /// Sum of all uplink capacities.
  double total_uplink() const;

 private:
  std::vector<Site> sites_;
};

/// The ten EC2 regions from §8.1 with the measured bandwidth ratios:
/// Singapore/Tokyo/Oregon have 5x the base tier, Virginia/Ohio/Frankfurt 2x
/// (so the top tier is 2.5x larger than them), and Seoul/Sydney/London/
/// Ireland sit at the base tier. `base_bytes_per_sec` scales the whole WAN.
WanTopology make_paper_topology(double base_bytes_per_sec = 50e6,
                                double downlink_multiplier = 1.0);

}  // namespace bohr::net
