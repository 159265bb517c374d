#include "net/topology.h"

#include <utility>

#include "common/check.h"

namespace bohr::net {

WanTopology::WanTopology(std::vector<Site> sites) : sites_(std::move(sites)) {
  for (const auto& s : sites_) {
    BOHR_EXPECTS(s.uplink_bytes_per_sec > 0.0);
    BOHR_EXPECTS(s.downlink_bytes_per_sec > 0.0);
  }
}

const Site& WanTopology::site(SiteId id) const {
  BOHR_EXPECTS(id < sites_.size());
  return sites_[id];
}

double WanTopology::total_uplink() const {
  double total = 0.0;
  for (const auto& s : sites_) total += s.uplink_bytes_per_sec;
  return total;
}

WanTopology make_paper_topology(double base_bytes_per_sec,
                                double downlink_multiplier) {
  BOHR_EXPECTS(base_bytes_per_sec > 0.0);
  BOHR_EXPECTS(downlink_multiplier > 0.0);
  struct Tiered {
    const char* name;
    double multiplier;
  };
  // Order matches the x-axis of Figures 8/9/11 in the paper.
  static constexpr Tiered kRegions[] = {
      {"Singapore", 5.0}, {"Tokyo", 5.0},  {"Oregon", 5.0},
      {"Virginia", 2.0},  {"Ohio", 2.0},   {"Frankfurt", 2.0},
      {"Seoul", 1.0},     {"Sydney", 1.0}, {"London", 1.0},
      {"Ireland", 1.0},
  };
  std::vector<Site> sites;
  sites.reserve(std::size(kRegions));
  for (const auto& r : kRegions) {
    const double up = base_bytes_per_sec * r.multiplier;
    sites.push_back(Site{r.name, up, up * downlink_multiplier});
  }
  return WanTopology(std::move(sites));
}

}  // namespace bohr::net
