// Per-site health tracking for the elastic migration controller.
//
// The monitor is probe-driven and fully deterministic: at every sampling
// round the caller passes the run clock, and each due probe is answered
// by the fault plan — a dark site times out, a degraded link or slow
// site answers with its observed factors. Missed probes back off
// exponentially (a dead site is not hammered every round), consecutive
// misses past a threshold mark the site Dead, and a site that flaps
// (dies and recovers repeatedly inside a window) is Quarantined: it
// stays excluded from placement until it holds still for a full
// quarantine period, so the migration controller never chases a
// flapping site back and forth.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/faults.h"
#include "net/topology.h"

namespace bohr::net {

enum class SiteHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,     ///< reachable but slow (link or compute)
  kDead = 2,         ///< probes time out
  kQuarantined = 3,  ///< flapping; excluded until it proves stable
};

const char* to_string(SiteHealth health);

struct HealthOptions {
  /// Probe cadence bookkeeping: after a miss, the next probe for that
  /// site waits `backoff_base * 2^misses`, capped — timed-out probes are
  /// not retried every round.
  double probe_backoff_base_seconds = 0.5;
  double probe_backoff_cap_seconds = 8.0;
  /// Consecutive missed probes before a site is declared Dead.
  std::size_t dead_after_misses = 2;
  /// A link factor at or below this marks the site Degraded.
  double degraded_link_factor = 0.5;
  /// A compute slowdown at or above this marks the site Degraded.
  double degraded_compute_factor = 2.0;
  /// Dead->alive transitions inside `flap_window_seconds` before the
  /// site is Quarantined.
  std::size_t flap_limit = 3;
  double flap_window_seconds = 120.0;
  /// How long a quarantined site must answer probes cleanly before it is
  /// trusted again.
  double quarantine_seconds = 60.0;
};

/// Deterministic probe-timeout health state machine over the fault plan.
class SiteHealthMonitor {
 public:
  SiteHealthMonitor(std::size_t site_count, HealthOptions options = {});

  /// One sampling round at run-clock `now` (must not decrease): probes
  /// every due site against `plan` and advances the state machines.
  void observe(const FaultPlan& plan, double now);

  SiteHealth health(SiteId site) const;
  /// A site the migration controller may place reduce buckets on.
  bool usable(SiteId site) const;
  /// Effective compute slowdown the last probe observed (1 for healthy).
  double observed_slowdown(SiteId site) const;
  /// Count of usable sites.
  std::size_t usable_count() const;

  /// Deterministic one-line summary, e.g. "0:H 1:D 2:X 3:Q ..." —
  /// folded into the migration log so health transitions are part of the
  /// byte-identity contract.
  std::string describe() const;

  /// Checkpointing: flat byte image of the monitor state, and its
  /// inverse. Restore requires the same site count and options, and
  /// throws ContractViolation on a malformed image.
  std::string serialize() const;
  void restore(std::string_view image);

 private:
  struct SiteState {
    SiteHealth health = SiteHealth::kHealthy;
    std::size_t consecutive_misses = 0;
    double next_probe_time = 0.0;
    double observed_slowdown = 1.0;
    /// Run-clock times of recent dead->alive transitions (flaps).
    std::vector<double> flap_times;
    /// When the current quarantine ends (valid while Quarantined).
    double quarantine_until = 0.0;
  };

  void probe_site(const FaultPlan& plan, SiteId site, double now);

  std::vector<SiteState> sites_;
  HealthOptions options_;
  double last_observed_ = -1.0;
};

}  // namespace bohr::net
