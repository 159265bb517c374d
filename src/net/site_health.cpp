#include "net/site_health.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/check.h"

namespace bohr::net {

const char* to_string(SiteHealth health) {
  switch (health) {
    case SiteHealth::kHealthy:
      return "H";
    case SiteHealth::kDegraded:
      return "D";
    case SiteHealth::kDead:
      return "X";
    case SiteHealth::kQuarantined:
      return "Q";
  }
  return "?";
}

SiteHealthMonitor::SiteHealthMonitor(std::size_t site_count,
                                     HealthOptions options)
    : sites_(site_count), options_(options) {
  BOHR_EXPECTS(site_count > 0);
  BOHR_EXPECTS(options_.probe_backoff_base_seconds >= 0.0);
  BOHR_EXPECTS(options_.probe_backoff_cap_seconds >=
               options_.probe_backoff_base_seconds);
  BOHR_EXPECTS(options_.dead_after_misses >= 1);
  BOHR_EXPECTS(options_.degraded_link_factor >= 0.0 &&
               options_.degraded_link_factor <= 1.0);
  BOHR_EXPECTS(options_.degraded_compute_factor >= 1.0);
  BOHR_EXPECTS(options_.flap_limit >= 1);
  BOHR_EXPECTS(options_.flap_window_seconds > 0.0);
  BOHR_EXPECTS(options_.quarantine_seconds >= 0.0);
}

SiteHealth SiteHealthMonitor::health(SiteId site) const {
  BOHR_EXPECTS(site < sites_.size());
  return sites_[site].health;
}

bool SiteHealthMonitor::usable(SiteId site) const {
  const SiteHealth h = health(site);
  return h == SiteHealth::kHealthy || h == SiteHealth::kDegraded;
}

double SiteHealthMonitor::observed_slowdown(SiteId site) const {
  BOHR_EXPECTS(site < sites_.size());
  return sites_[site].observed_slowdown;
}

std::size_t SiteHealthMonitor::usable_count() const {
  std::size_t n = 0;
  for (SiteId i = 0; i < sites_.size(); ++i) {
    if (usable(i)) ++n;
  }
  return n;
}

void SiteHealthMonitor::probe_site(const FaultPlan& plan, SiteId site,
                                   double now) {
  SiteState& s = sites_[site];
  const bool dark = plan.site_dark_at(site, now);
  if (dark) {
    // Probe timed out: back off exponentially before asking again.
    ++s.consecutive_misses;
    const double backoff = std::min(
        options_.probe_backoff_cap_seconds,
        options_.probe_backoff_base_seconds *
            static_cast<double>(1ull << std::min<std::size_t>(
                                    s.consecutive_misses - 1, 20)));
    s.next_probe_time = now + backoff;
    s.observed_slowdown = 1.0;
    if (s.consecutive_misses >= options_.dead_after_misses &&
        s.health != SiteHealth::kQuarantined) {
      s.health = SiteHealth::kDead;
    }
    return;
  }

  // Probe answered. Record the recovery if the site had been dead.
  const bool was_dead = s.health == SiteHealth::kDead;
  s.consecutive_misses = 0;
  s.next_probe_time = now;
  if (was_dead) {
    s.flap_times.push_back(now);
    // Drop flaps that left the window.
    const double horizon = now - options_.flap_window_seconds;
    s.flap_times.erase(
        std::remove_if(s.flap_times.begin(), s.flap_times.end(),
                       [&](double t) { return t < horizon; }),
        s.flap_times.end());
    if (s.flap_times.size() >= options_.flap_limit) {
      s.health = SiteHealth::kQuarantined;
      s.quarantine_until = now + options_.quarantine_seconds;
      s.observed_slowdown = 1.0;
      return;
    }
  }

  if (s.health == SiteHealth::kQuarantined) {
    if (now < s.quarantine_until) return;  // still serving its sentence
    s.health = SiteHealth::kHealthy;
  }

  const double link = std::min(plan.uplink_factor(site, now),
                               plan.downlink_factor(site, now));
  const double slowdown = plan.compute_slowdown(site, now);
  s.observed_slowdown = slowdown;
  const bool degraded = link <= options_.degraded_link_factor ||
                        slowdown >= options_.degraded_compute_factor;
  s.health = degraded ? SiteHealth::kDegraded : SiteHealth::kHealthy;
}

void SiteHealthMonitor::observe(const FaultPlan& plan, double now) {
  BOHR_EXPECTS(now >= last_observed_);
  last_observed_ = now;
  for (SiteId i = 0; i < sites_.size(); ++i) {
    if (sites_[i].next_probe_time > now + 1e-12) continue;  // backing off
    probe_site(plan, i, now);
  }
}

std::string SiteHealthMonitor::describe() const {
  std::string out;
  for (SiteId i = 0; i < sites_.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += std::to_string(i);
    out += ':';
    out += to_string(sites_[i].health);
  }
  return out;
}

std::string SiteHealthMonitor::serialize() const {
  ByteWriter w;
  w.u64(sites_.size());
  w.f64(last_observed_);
  for (const SiteState& s : sites_) {
    w.u64(static_cast<std::uint64_t>(s.health));
    w.u64(s.consecutive_misses);
    w.f64(s.next_probe_time);
    w.f64(s.observed_slowdown);
    w.f64(s.quarantine_until);
    w.u64(s.flap_times.size());
    for (const double t : s.flap_times) w.f64(t);
  }
  return w.take();
}

void SiteHealthMonitor::restore(std::string_view image) {
  ByteReader<ContractViolation> r(image, "health image");
  if (r.u64() != sites_.size()) r.fail("site count mismatch");
  last_observed_ = r.f64();
  for (SiteState& s : sites_) {
    const std::uint64_t h = r.u64();
    if (h > static_cast<std::uint64_t>(SiteHealth::kQuarantined)) {
      r.fail("unknown health state");
    }
    s.health = static_cast<SiteHealth>(h);
    s.consecutive_misses = r.u64();
    s.next_probe_time = r.f64();
    s.observed_slowdown = r.f64();
    s.quarantine_until = r.f64();
    s.flap_times.resize(r.count<std::uint64_t>(sizeof(double)));
    for (double& t : s.flap_times) t = r.f64();
  }
  r.expect_end();
}

}  // namespace bohr::net
