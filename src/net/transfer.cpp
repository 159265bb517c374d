#include "net/transfer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "net/faults.h"

namespace bohr::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A "link" is either a site uplink (index s) or downlink (index S + s).
std::size_t uplink_index(SiteId s) { return s; }
std::size_t downlink_index(std::size_t site_count, SiteId s) {
  return site_count + s;
}

/// Max-min fair rates by progressive filling against explicit per-link
/// capacities (2S entries: uplinks then downlinks). max_min_rates and
/// the event loop share one filler, and the event loop keeps it across
/// events, so its scratch vectors stop allocating once they have grown.
///
/// Each call groups the WAN flows by link, in position order. A filling
/// round computes every open link's saturation level (capacity - fixed
/// load) / unfixed flows once, raises the common level to the lowest,
/// and freezes the unfixed flows of the links that saturate at it. Only
/// the links a freeze touched re-sum their fixed load. Loads must be
/// summed in position order and the freeze test applied per flow: that
/// keeps every rate bit-identical to a whole-flow rescan per round, the
/// oracle in tests/net/flow_oracle (DESIGN.md §7).
class FairShareFiller {
 public:
  /// Rates of flows[ids[k]], k-aligned with `ids` and valid until the
  /// next call. Intra-site flows do not traverse the WAN and get rate 0.
  const std::vector<double>& fill(const std::vector<double>& capacity,
                                  const std::vector<Flow>& flows,
                                  const std::vector<std::size_t>& ids);

 private:
  // Per link: the positions k of its unfixed-at-entry flows, ascending,
  // in link_flows_[link_begin_[l], link_begin_[l + 1]).
  std::vector<std::size_t> link_begin_;
  std::vector<std::size_t> link_flows_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> unfixed_;  ///< per link: flows not yet frozen
  std::vector<double> load_;          ///< per link: sum of frozen rates
  std::vector<double> saturation_;    ///< per open link, this round
  std::vector<char> touched_;         ///< per link: a freeze hit it
  std::vector<std::size_t> touched_links_;
  // Per position k.
  std::vector<std::size_t> up_;
  std::vector<std::size_t> down_;
  std::vector<char> fixed_;
  std::vector<double> rates_;
};

const std::vector<double>& FairShareFiller::fill(
    const std::vector<double>& capacity, const std::vector<Flow>& flows,
    const std::vector<std::size_t>& ids) {
  const std::size_t n_links = capacity.size();
  const std::size_t n_sites = n_links / 2;
  const std::size_t n = ids.size();

  rates_.assign(n, 0.0);
  fixed_.assign(n, 0);
  up_.resize(n);
  down_.resize(n);
  unfixed_.assign(n_links, 0);
  // Intra-site flows do not traverse the WAN; fix them at rate 0 up front.
  std::size_t undetermined = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Flow& flow = flows[ids[k]];
    BOHR_EXPECTS(flow.src < n_sites && flow.dst < n_sites);
    if (flow.src == flow.dst) {
      fixed_[k] = 1;
      continue;
    }
    up_[k] = uplink_index(flow.src);
    down_[k] = downlink_index(n_sites, flow.dst);
    ++unfixed_[up_[k]];
    ++unfixed_[down_[k]];
    ++undetermined;
  }
  link_begin_.assign(n_links + 1, 0);
  for (std::size_t l = 0; l < n_links; ++l) {
    link_begin_[l + 1] = link_begin_[l] + unfixed_[l];
  }
  link_flows_.resize(link_begin_[n_links]);
  cursor_.assign(link_begin_.begin(), link_begin_.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    if (fixed_[k]) continue;
    link_flows_[cursor_[up_[k]]++] = k;
    link_flows_[cursor_[down_[k]]++] = k;
  }
  load_.assign(n_links, 0.0);
  saturation_.resize(n_links);
  touched_.assign(n_links, 0);
  touched_links_.clear();

  // Progressive filling: raise the common rate `level` of all undetermined
  // flows until some link saturates; freeze flows on saturated links;
  // repeat. Each iteration freezes at least one flow, so it terminates.
  // A zero-capacity link (site outage) saturates at level 0, freezing its
  // flows at rate 0.
  double level = 0.0;
  while (undetermined > 0) {
    // For each open link, the level at which it would saturate.
    double next_level = kInf;
    for (std::size_t l = 0; l < n_links; ++l) {
      if (unfixed_[l] == 0) continue;
      saturation_[l] =
          (capacity[l] - load_[l]) / static_cast<double>(unfixed_[l]);
      next_level = std::min(next_level, saturation_[l]);
    }
    BOHR_CHECK(next_level < kInf);
    level = std::max(level, next_level);

    // Freeze flows whose path contains a saturated link at this level.
    // Every such flow lies on a link visited here. The per-flow test
    // reads this round's saturations, which freezing leaves unchanged;
    // a link emptied by an earlier freeze this round has nothing left.
    const double threshold = level * (1.0 + 1e-12);
    bool froze_any = false;
    for (std::size_t l = 0; l < n_links; ++l) {
      if (unfixed_[l] == 0 || !(saturation_[l] <= threshold)) continue;
      for (std::size_t p = link_begin_[l]; p < link_begin_[l + 1]; ++p) {
        const std::size_t k = link_flows_[p];
        if (fixed_[k]) continue;
        const std::size_t up = up_[k];
        const std::size_t down = down_[k];
        if (!(std::min(saturation_[up], saturation_[down]) <= threshold)) {
          continue;
        }
        rates_[k] = level;
        fixed_[k] = 1;
        --undetermined;
        froze_any = true;
        --unfixed_[up];
        --unfixed_[down];
        for (const std::size_t hit : {up, down}) {
          if (!touched_[hit]) {
            touched_[hit] = 1;
            touched_links_.push_back(hit);
          }
        }
      }
    }
    BOHR_CHECK(froze_any);
    if (undetermined == 0) break;

    for (const std::size_t l : touched_links_) {
      touched_[l] = 0;
      if (unfixed_[l] == 0) continue;  // closed: its load is never read
      double load = 0.0;
      for (std::size_t p = link_begin_[l]; p < link_begin_[l + 1]; ++p) {
        const std::size_t k = link_flows_[p];
        if (fixed_[k]) load += rates_[k];
      }
      load_[l] = load;
    }
    touched_links_.clear();
  }
  return rates_;
}

std::vector<double> nominal_capacity(const WanTopology& topo) {
  const std::size_t n_sites = topo.site_count();
  std::vector<double> capacity(2 * n_sites, 0.0);
  for (SiteId s = 0; s < n_sites; ++s) {
    capacity[uplink_index(s)] = topo.uplink(s);
    capacity[downlink_index(n_sites, s)] = topo.downlink(s);
  }
  return capacity;
}

}  // namespace

std::vector<double> max_min_rates(const WanTopology& topo,
                                  const std::vector<Flow>& flows) {
  std::vector<std::size_t> ids(flows.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  FairShareFiller filler;
  return filler.fill(nominal_capacity(topo), flows, ids);
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
  // Flows not yet done or failed, in index order. The event loop walks
  // only these; flows that finish are dropped by the next event's scan.
  std::vector<std::size_t> live;
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
      live.push_back(f);
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

  // Effective capacities are piecewise constant between fault boundaries.
  // Without outages or degradations every factor is exactly 1 and
  // x * 1.0 == x, so the nominal capacities hold at every event.
  const bool capacity_faults =
      !plan.outages.empty() || !plan.degradations.empty();
  std::vector<double> capacity = nominal_capacity(topo);
  FairShareFiller filler;
  std::vector<std::size_t> active_ids;

  double now = 0.0;
  while (unfinished > 0) {
    if (!deadline_recorded && now >= deadline - 1e-15) snapshot_deadline();

    // Fire due kill events against in-flight flows.
    for (std::size_t k = 0; k < plan.kills.size(); ++k) {
      if (kill_fired[k] || plan.kills[k].time > now + 1e-15) continue;
      kill_fired[k] = true;
      for (const std::size_t f : live) {
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
    if (!plan.outages.empty()) {
      for (const std::size_t f : live) {
        if (done[f] || failed[f] || eligible[f] > now + 1e-15) continue;
        if (plan.site_dark_at(flows[f].src, now) ||
            plan.site_dark_at(flows[f].dst, now)) {
          interrupt(f, now);
        }
      }
    }
    if (unfinished == 0) break;

    // Active = eligible and not finished. Pending = eligible later.
    active_ids.clear();
    double next_event = kInf;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t f = live[i];
      if (done[f] || failed[f]) continue;
      live[kept++] = f;
      if (eligible[f] <= now + 1e-15) {
        active_ids.push_back(f);
      } else {
        next_event = std::min(next_event, eligible[f]);
      }
    }
    live.resize(kept);
    next_event = std::min(next_event, plan.next_event_after(now));
    if (!deadline_recorded && deadline > now + 1e-15) {
      next_event = std::min(next_event, deadline);
    }
    if (active_ids.empty()) {
      BOHR_CHECK(next_event < kInf);
      now = next_event;
      continue;
    }

    if (capacity_faults) {
      for (SiteId s = 0; s < n_sites; ++s) {
        capacity[uplink_index(s)] =
            topo.uplink(s) * plan.uplink_factor(s, now);
        capacity[downlink_index(n_sites, s)] =
            topo.downlink(s) * plan.downlink_factor(s, now);
      }
    }
    const std::vector<double>& rates =
        filler.fill(capacity, flows, active_ids);

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

std::vector<FlowResult> simulate_flows(const WanTopology& topo,
                                       std::vector<Flow> flows) {
  // Delegate to the fault-aware engine with the inert plan: no events,
  // no deadline — the arithmetic is exactly the historical simulator's.
  const FaultPlan no_faults;
  const FaultSimReport report =
      simulate_flows_with_faults(topo, std::move(flows), no_faults);
  std::vector<FlowResult> results(report.flows.size());
  for (std::size_t f = 0; f < results.size(); ++f) {
    results[f].finish_time = report.flows[f].finish_time;
    results[f].mean_rate = report.flows[f].mean_rate;
  }
  return results;
}

}  // namespace bohr::net
