// The simulator's allocator and event loop as they were before per-link
// progressive filling, kept verbatim as the differential oracle.
#include "flow_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "net/faults.h"

namespace bohr::net::oracle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A "link" is either a site uplink (index s) or downlink (index S + s).
std::size_t uplink_index(SiteId s) { return s; }
std::size_t downlink_index(std::size_t site_count, SiteId s) {
  return site_count + s;
}

/// Progressive filling against explicit per-link capacities (2S entries:
/// uplinks then downlinks). Shared by the pristine and faulted paths so
/// both see the identical allocation arithmetic.
std::vector<double> max_min_rates_capacity(const std::vector<double>& capacity,
                                           const std::vector<Flow>& flows) {
  const std::size_t n_links = capacity.size();
  const std::size_t n_sites = n_links / 2;

  std::vector<double> rates(flows.size(), 0.0);
  std::vector<bool> fixed(flows.size(), false);
  // Intra-site flows do not traverse the WAN; fix them at rate 0 up front.
  std::size_t undetermined = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    BOHR_EXPECTS(flows[f].src < n_sites && flows[f].dst < n_sites);
    if (flows[f].src == flows[f].dst) {
      fixed[f] = true;
    } else {
      ++undetermined;
    }
  }

  // Progressive filling: raise the common rate `level` of all undetermined
  // flows until some link saturates; freeze flows on saturated links;
  // repeat. Each iteration freezes at least one flow, so it terminates.
  // A zero-capacity link (site outage) saturates at level 0, freezing its
  // flows at rate 0.
  double level = 0.0;
  while (undetermined > 0) {
    // For each link, the level at which it would saturate.
    double next_level = kInf;
    std::vector<std::size_t> flows_on_link(n_links, 0);
    std::vector<double> fixed_load(n_links, 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (flows[f].src == flows[f].dst) continue;
      const std::size_t up = uplink_index(flows[f].src);
      const std::size_t down = downlink_index(n_sites, flows[f].dst);
      if (fixed[f]) {
        fixed_load[up] += rates[f];
        fixed_load[down] += rates[f];
      } else {
        ++flows_on_link[up];
        ++flows_on_link[down];
      }
    }
    for (std::size_t l = 0; l < n_links; ++l) {
      if (flows_on_link[l] == 0) continue;
      const double saturation =
          (capacity[l] - fixed_load[l]) / static_cast<double>(flows_on_link[l]);
      next_level = std::min(next_level, saturation);
    }
    BOHR_CHECK(next_level < kInf);
    level = std::max(level, next_level);

    // Freeze flows whose path contains a saturated link at this level.
    bool froze_any = false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (fixed[f] || flows[f].src == flows[f].dst) continue;
      const std::size_t up = uplink_index(flows[f].src);
      const std::size_t down = downlink_index(n_sites, flows[f].dst);
      const double up_sat = (capacity[up] - fixed_load[up]) /
                            static_cast<double>(flows_on_link[up]);
      const double down_sat = (capacity[down] - fixed_load[down]) /
                              static_cast<double>(flows_on_link[down]);
      if (std::min(up_sat, down_sat) <= level * (1.0 + 1e-12)) {
        rates[f] = level;
        fixed[f] = true;
        --undetermined;
        froze_any = true;
      }
    }
    BOHR_CHECK(froze_any);
  }
  return rates;
}

}  // namespace

std::vector<double> max_min_rates(const WanTopology& topo,
                                  const std::vector<Flow>& flows) {
  const std::size_t n_sites = topo.site_count();
  std::vector<double> capacity(2 * n_sites, 0.0);
  for (SiteId s = 0; s < n_sites; ++s) {
    capacity[uplink_index(s)] = topo.uplink(s);
    capacity[downlink_index(n_sites, s)] = topo.downlink(s);
  }
  return max_min_rates_capacity(capacity, flows);
}

FaultSimReport simulate_flows_with_faults(const WanTopology& topo,
                                          std::vector<Flow> flows,
                                          const FaultPlan& plan,
                                          double deadline) {
  const std::size_t n_sites = topo.site_count();
  plan.validate();

  FaultSimReport report;
  report.flows.assign(flows.size(), FaultyFlowResult{});
  std::vector<double> remaining(flows.size());
  std::vector<bool> done(flows.size(), false);
  std::vector<bool> failed(flows.size(), false);
  std::vector<std::size_t> attempts(flows.size(), 0);
  // Time from which a flow may (re)transmit: its arrival, then pushed
  // forward by backoff + outage recovery on each interruption.
  std::vector<double> eligible(flows.size(), 0.0);
  std::vector<bool> kill_fired(plan.kills.size(), false);
  std::size_t unfinished = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    BOHR_EXPECTS(flows[f].bytes >= 0.0);
    BOHR_EXPECTS(flows[f].start_time >= 0.0);
    remaining[f] = flows[f].bytes;
    eligible[f] = flows[f].start_time;
    if (flows[f].bytes <= 0.0 || flows[f].src == flows[f].dst) {
      // Local or empty transfers never touch the WAN.
      report.flows[f].finish_time = flows[f].start_time;
      report.flows[f].mean_rate = 0.0;
      report.flows[f].delivered_bytes = flows[f].bytes;
      report.flows[f].delivered_by_deadline = flows[f].bytes;
      done[f] = true;
    } else {
      ++unfinished;
    }
  }

  const bool have_deadline = deadline < kInf;
  bool deadline_recorded = !have_deadline;
  const auto snapshot_deadline = [&] {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (done[f]) {
        report.flows[f].delivered_by_deadline = flows[f].bytes;
      } else if (plan.retry.resume) {
        report.flows[f].delivered_by_deadline =
            std::max(0.0, flows[f].bytes - remaining[f]);
      } else {
        // Restart semantics: an attempt delivers nothing until it
        // completes, so in-flight progress does not count.
        report.flows[f].delivered_by_deadline = 0.0;
      }
    }
    deadline_recorded = true;
  };

  const auto interrupt = [&](std::size_t f, double now) {
    ++report.interruptions;
    if (attempts[f] >= plan.retry.max_retries) {
      failed[f] = true;
      --unfinished;
      ++report.failures;
      report.flows[f].completed = false;
      report.flows[f].finish_time = now;
      report.flows[f].delivered_bytes =
          plan.retry.resume ? std::max(0.0, flows[f].bytes - remaining[f])
                            : 0.0;
      return;
    }
    ++attempts[f];
    ++report.retries;
    ++report.flows[f].retries;
    const double backoff =
        std::min(plan.retry.backoff_base_seconds *
                     std::pow(2.0, static_cast<double>(attempts[f] - 1)),
                 plan.retry.backoff_cap_seconds);
    double resume_at = now + backoff;
    resume_at = std::max(resume_at, plan.recovery_time(flows[f].src, now));
    resume_at = std::max(resume_at, plan.recovery_time(flows[f].dst, now));
    eligible[f] = resume_at;
    if (!plan.retry.resume) remaining[f] = flows[f].bytes;
  };

  double now = 0.0;
  while (unfinished > 0) {
    if (!deadline_recorded && now >= deadline - 1e-15) snapshot_deadline();

    // Fire due kill events against in-flight flows.
    for (std::size_t k = 0; k < plan.kills.size(); ++k) {
      if (kill_fired[k] || plan.kills[k].time > now + 1e-15) continue;
      kill_fired[k] = true;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (done[f] || failed[f] || eligible[f] > now + 1e-15) continue;
        const bool src_match =
            plan.kills[k].src == kAnySite || plan.kills[k].src == flows[f].src;
        const bool dst_match =
            plan.kills[k].dst == kAnySite || plan.kills[k].dst == flows[f].dst;
        if (src_match && dst_match) interrupt(f, now);
      }
    }
    // A flow whose endpoint just went dark is interrupted (connection
    // reset), even if it only became eligible inside the outage.
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (done[f] || failed[f] || eligible[f] > now + 1e-15) continue;
      if (plan.site_dark_at(flows[f].src, now) ||
          plan.site_dark_at(flows[f].dst, now)) {
        interrupt(f, now);
      }
    }
    if (unfinished == 0) break;

    // Active = eligible and not finished. Pending = eligible later.
    std::vector<std::size_t> active_ids;
    double next_event = kInf;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (done[f] || failed[f]) continue;
      if (eligible[f] <= now + 1e-15) {
        active_ids.push_back(f);
      } else {
        next_event = std::min(next_event, eligible[f]);
      }
    }
    next_event = std::min(next_event, plan.next_event_after(now));
    if (!deadline_recorded && deadline > now + 1e-15) {
      next_event = std::min(next_event, deadline);
    }
    if (active_ids.empty()) {
      BOHR_CHECK(next_event < kInf);
      now = next_event;
      continue;
    }

    // Effective capacities for this epoch (piecewise constant between
    // fault boundaries; factor 1 reproduces the nominal value exactly).
    std::vector<double> capacity(2 * n_sites, 0.0);
    for (SiteId s = 0; s < n_sites; ++s) {
      capacity[uplink_index(s)] =
          topo.uplink(s) * plan.uplink_factor(s, now);
      capacity[downlink_index(n_sites, s)] =
          topo.downlink(s) * plan.downlink_factor(s, now);
    }

    std::vector<Flow> active;
    active.reserve(active_ids.size());
    for (const auto f : active_ids) active.push_back(flows[f]);
    const std::vector<double> rates = max_min_rates_capacity(capacity, active);

    // Earliest event: a completion, an arrival/retry, a fault boundary,
    // or the deadline snapshot point.
    double dt = next_event - now;
    for (std::size_t k = 0; k < active_ids.size(); ++k) {
      if (rates[k] > 0.0) {
        dt = std::min(dt, remaining[active_ids[k]] / rates[k]);
      }
    }
    BOHR_CHECK(dt > 0.0 && dt < kInf);

    for (std::size_t k = 0; k < active_ids.size(); ++k) {
      const std::size_t f = active_ids[k];
      remaining[f] -= rates[k] * dt;
      if (remaining[f] <= flows[f].bytes * 1e-12 + 1e-9) {
        remaining[f] = 0.0;
        done[f] = true;
        --unfinished;
        report.flows[f].finish_time = now + dt;
        report.flows[f].delivered_bytes = flows[f].bytes;
        const double duration =
            report.flows[f].finish_time - flows[f].start_time;
        report.flows[f].mean_rate =
            duration > 0.0 ? flows[f].bytes / duration : 0.0;
      }
    }
    now += dt;
  }
  if (!deadline_recorded) snapshot_deadline();

  for (const auto& fr : report.flows) {
    report.makespan = std::max(report.makespan, fr.finish_time);
  }
  return report;
}

}  // namespace bohr::net::oracle
