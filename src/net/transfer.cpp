#include "net/transfer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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
/// capacities (2S entries: uplinks then downlinks). The event loop keeps
/// one filler per call and completes intra-site flows itself, so every
/// flow a fill sees crosses the WAN.
///
/// A fill groups the WAN flows by link, in fill order. A filling round
/// computes every open link's saturation level (capacity - fixed load) /
/// unfixed flows once, raises the common level to the lowest, and
/// freezes the unfixed flows of the links that saturate at it. Only the
/// links a freeze touched re-sum their fixed load. Loads must be summed
/// in fill order and the freeze test applied per flow: that keeps every
/// rate bit-identical to a whole-flow rescan per round, the oracle in
/// tests/net/flow_oracle (DESIGN.md §7).
///
/// The filler remembers the last call's ids and capacities and, per
/// round, the level it started from, the flows it froze and the loads
/// its re-sums overwrote. When a call's ids are what is left of the last
/// call's, in the same order, under capacities with the same bits, it
/// goes back to the start of the lowest round at which a leaving flow
/// froze and fills on from there: the rounds below it replay exactly
/// (DESIGN.md §7). Any other call fills from level 0.
class FairShareFiller {
 public:
  /// Returns the rates indexed by flow id, valid for the flows in `ids`
  /// until the next call. Every flow in `ids` must cross the WAN.
  const std::vector<double>& fill(const std::vector<double>& capacity,
                                  const std::vector<Flow>& flows,
                                  const std::vector<std::size_t>& ids);

 private:
  enum State : std::uint8_t { kOpen, kFrozen, kGone };

  /// Whether `ids` is a subsequence of ids_; if so, gone_ holds the rest.
  bool left_of_last(const std::vector<std::size_t>& ids);
  void fill_from_zero(const std::vector<double>& capacity,
                      const std::vector<Flow>& flows,
                      const std::vector<std::size_t>& ids);
  /// Undoes to the start of the lowest round at which a flow of gone_
  /// froze and fills on from there.
  void resume(const std::vector<double>& capacity);
  /// Progressive filling from the current state until every flow froze.
  void run(const std::vector<double>& capacity);

  std::vector<std::size_t> ids_;  ///< the last call's ids
  std::vector<double> capacity_;  ///< the last call's capacities
  std::vector<std::size_t> gone_;  ///< ids_ less this call's ids
  // Per link: its flows in fill order, link_flows_[link_begin_[l],
  // link_end_[l]); leaving flows are erased in place.
  std::vector<std::size_t> link_begin_;
  std::vector<std::size_t> link_end_;
  std::vector<std::size_t> link_flows_;
  std::vector<std::size_t> unfixed_;  ///< per link: flows not yet frozen
  std::vector<double> load_;          ///< per link: sum of frozen rates
  std::vector<double> saturation_;    ///< per open link, this round
  std::vector<char> touched_;         ///< per link: a freeze hit it
  std::vector<std::size_t> touched_links_;
  // Per flow id.
  std::vector<std::size_t> up_;
  std::vector<std::size_t> down_;
  std::vector<State> state_;
  std::vector<std::size_t> round_;  ///< the round the flow froze in
  std::vector<double> rates_;  ///< +0.0 until the flow freezes
  // Per round r: the level entering it, and where its entries begin in
  // frozen_ and in the load undo log.
  std::vector<double> level_at_;
  std::vector<std::size_t> frozen_begin_;
  std::vector<std::size_t> log_begin_;
  std::vector<std::size_t> frozen_;     ///< flows in freeze order
  std::vector<std::size_t> log_links_;  ///< a link a re-sum overwrote...
  std::vector<double> log_loads_;       ///< ...and its load before that
  double level_ = 0.0;
  std::size_t undetermined_ = 0;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

const std::vector<double>& FairShareFiller::fill(
    const std::vector<double>& capacity, const std::vector<Flow>& flows,
    const std::vector<std::size_t>& ids) {
  if (same_bits(capacity, capacity_) && left_of_last(ids)) {
    resume(capacity);
  } else {
    capacity_ = capacity;
    fill_from_zero(capacity, flows, ids);
  }
  ids_ = ids;
  return rates_;
}

bool FairShareFiller::left_of_last(const std::vector<std::size_t>& ids) {
  gone_.clear();
  std::size_t i = 0;
  for (const std::size_t f : ids) {
    while (i < ids_.size() && ids_[i] != f) gone_.push_back(ids_[i++]);
    if (i == ids_.size()) return false;
    ++i;
  }
  gone_.insert(gone_.end(), ids_.begin() + i, ids_.end());
  return true;
}

void FairShareFiller::fill_from_zero(const std::vector<double>& capacity,
                                     const std::vector<Flow>& flows,
                                     const std::vector<std::size_t>& ids) {
  const std::size_t n_links = capacity.size();
  const std::size_t n_sites = n_links / 2;

  up_.resize(flows.size());
  down_.resize(flows.size());
  state_.resize(flows.size());
  round_.resize(flows.size());
  rates_.resize(flows.size());
  unfixed_.assign(n_links, 0);
  undetermined_ = 0;
  for (const std::size_t f : ids) {
    const Flow& flow = flows[f];
    BOHR_EXPECTS(flow.src < n_sites && flow.dst < n_sites);
    BOHR_EXPECTS(flow.src != flow.dst);
    rates_[f] = 0.0;
    state_[f] = kOpen;
    up_[f] = uplink_index(flow.src);
    down_[f] = downlink_index(n_sites, flow.dst);
    ++unfixed_[up_[f]];
    ++unfixed_[down_[f]];
    ++undetermined_;
  }
  link_begin_.assign(n_links + 1, 0);
  for (std::size_t l = 0; l < n_links; ++l) {
    link_begin_[l + 1] = link_begin_[l] + unfixed_[l];
  }
  link_flows_.resize(link_begin_[n_links]);
  link_end_.assign(link_begin_.begin(), link_begin_.end() - 1);
  for (const std::size_t f : ids) {
    link_flows_[link_end_[up_[f]]++] = f;
    link_flows_[link_end_[down_[f]]++] = f;
  }
  load_.assign(n_links, 0.0);
  saturation_.resize(n_links);
  touched_.assign(n_links, 0);
  touched_links_.clear();
  level_at_.clear();
  frozen_begin_.clear();
  log_begin_.clear();
  frozen_.clear();
  log_links_.clear();
  log_loads_.clear();
  level_ = 0.0;
  run(capacity);
}

void FairShareFiller::resume(const std::vector<double>& capacity) {
  // Every flow of the last call froze.
  std::size_t resume = level_at_.size();
  for (const std::size_t f : gone_) resume = std::min(resume, round_[f]);
  if (resume == level_at_.size()) return;  // the rates stand as they are
  // Back to the start of round `resume`: restore the loads that it and
  // later rounds re-summed, newest first.
  for (std::size_t i = log_links_.size(); i-- > log_begin_[resume];) {
    load_[log_links_[i]] = log_loads_[i];
  }
  for (const std::size_t f : gone_) {
    for (const std::size_t l : {up_[f], down_[f]}) {
      const auto first = link_flows_.begin() + link_begin_[l];
      const auto last = link_flows_.begin() + link_end_[l];
      link_end_[l] = std::remove(first, last, f) - link_flows_.begin();
    }
    state_[f] = kGone;
  }
  // Every flow that stays and froze at `resume` or later is open again.
  // A complete fill left every unfixed count at 0.
  for (std::size_t i = frozen_begin_[resume]; i < frozen_.size(); ++i) {
    const std::size_t f = frozen_[i];
    if (state_[f] == kGone) continue;
    state_[f] = kOpen;
    rates_[f] = 0.0;
    ++unfixed_[up_[f]];
    ++unfixed_[down_[f]];
    ++undetermined_;
  }
  level_ = level_at_[resume];
  frozen_.resize(frozen_begin_[resume]);
  log_links_.resize(log_begin_[resume]);
  log_loads_.resize(log_begin_[resume]);
  level_at_.resize(resume);
  frozen_begin_.resize(resume);
  log_begin_.resize(resume);
  run(capacity);
}

void FairShareFiller::run(const std::vector<double>& capacity) {
  const std::size_t n_links = capacity.size();
  // The last round of the previous fill stopped before its re-sums.
  for (const std::size_t l : touched_links_) touched_[l] = 0;
  touched_links_.clear();

  // Progressive filling: raise the common rate `level` of all undetermined
  // flows until some link saturates; freeze flows on saturated links;
  // repeat. Each iteration freezes at least one flow, so it terminates.
  // A zero-capacity link (site outage) saturates at level 0, freezing its
  // flows at rate 0.
  while (undetermined_ > 0) {
    const std::size_t round = level_at_.size();
    level_at_.push_back(level_);
    frozen_begin_.push_back(frozen_.size());
    log_begin_.push_back(log_links_.size());

    // For each open link, the level at which it would saturate.
    double next_level = kInf;
    for (std::size_t l = 0; l < n_links; ++l) {
      if (unfixed_[l] == 0) continue;
      saturation_[l] =
          (capacity[l] - load_[l]) / static_cast<double>(unfixed_[l]);
      next_level = std::min(next_level, saturation_[l]);
    }
    BOHR_CHECK(next_level < kInf);
    level_ = std::max(level_, next_level);

    // Freeze flows whose path contains a saturated link at this level.
    // Every such flow lies on a link visited here. The per-flow test
    // reads this round's saturations, which freezing leaves unchanged;
    // a link emptied by an earlier freeze this round has nothing left.
    const double threshold = level_ * (1.0 + 1e-12);
    for (std::size_t l = 0; l < n_links; ++l) {
      if (unfixed_[l] == 0 || !(saturation_[l] <= threshold)) continue;
      for (std::size_t p = link_begin_[l]; p < link_end_[l]; ++p) {
        const std::size_t f = link_flows_[p];
        if (state_[f] != kOpen) continue;
        const std::size_t up = up_[f];
        const std::size_t down = down_[f];
        if (!(std::min(saturation_[up], saturation_[down]) <= threshold)) {
          continue;
        }
        rates_[f] = level_;
        state_[f] = kFrozen;
        round_[f] = round;
        frozen_.push_back(f);
        --undetermined_;
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
    BOHR_CHECK(frozen_.size() > frozen_begin_[round]);
    if (undetermined_ == 0) break;

    for (const std::size_t l : touched_links_) {
      touched_[l] = 0;
      if (unfixed_[l] == 0) continue;  // closed: its load is never read
      // Unfixed flows add their +0.0 rate, which leaves a sum of
      // non-negative levels unchanged: the bits of skipping them.
      double load = 0.0;
      for (std::size_t p = link_begin_[l]; p < link_end_[l]; ++p) {
        load += rates_[link_flows_[p]];
      }
      log_links_.push_back(l);
      log_loads_.push_back(load_[l]);
      load_[l] = load;
    }
    touched_links_.clear();
  }
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
  // Unfinished flows that may not transmit yet, latest eligibility
  // first, so the next one to become eligible is at the back.
  std::vector<std::size_t> pending;
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
      pending.push_back(f);
    }
  }
  const auto later = [&](std::size_t a, std::size_t b) {
    return eligible[a] > eligible[b];
  };
  std::stable_sort(pending.begin(), pending.end(), later);

  // The flows that may transmit now, in index order: the filler's fill
  // order. Their remaining bytes, completion cut-offs and rates sit at
  // the same positions, so the per-event passes are contiguous;
  // remaining[f] is current only for flows outside this set.
  std::vector<std::size_t> active;
  std::vector<double> left;
  std::vector<double> cutoff;
  std::vector<double> rate;
  const auto sync_remaining = [&] {
    for (std::size_t k = 0; k < active.size(); ++k) {
      remaining[active[k]] = left[k];
    }
  };

  const bool have_deadline = deadline < kInf;
  bool deadline_recorded = !have_deadline;
  const auto snapshot_deadline = [&] {
    sync_remaining();
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
  // Resumes on its own when an event only removed flows.
  FairShareFiller filler;
  std::vector<std::size_t> arrived;

  double now = 0.0;
  while (unfinished > 0) {
    if (!deadline_recorded && now >= deadline - 1e-15) snapshot_deadline();

    // Flows whose (re)transmission time has come join the active set,
    // merged from the back so that each entry moves once.
    arrived.clear();
    while (!pending.empty() && eligible[pending.back()] <= now + 1e-15) {
      arrived.push_back(pending.back());
      pending.pop_back();
    }
    if (!arrived.empty()) {
      std::sort(arrived.begin(), arrived.end());
      std::size_t i = active.size();
      std::size_t j = arrived.size();
      std::size_t out = i + j;
      active.resize(out);
      left.resize(out);
      cutoff.resize(out);
      while (j > 0) {
        --out;
        if (i > 0 && active[i - 1] > arrived[j - 1]) {
          --i;
          active[out] = active[i];
          left[out] = left[i];
          cutoff[out] = cutoff[i];
        } else {
          const std::size_t f = arrived[--j];
          active[out] = f;
          left[out] = remaining[f];
          cutoff[out] = flows[f].bytes * 1e-12 + 1e-9;
        }
      }
    }

    // Fire due kill events against in-flight flows, then interrupt every
    // flow whose endpoint just went dark (connection reset), even if it
    // only became eligible inside the outage.
    bool interrupted = false;
    const auto interrupt_at = [&](std::size_t k) {
      const std::size_t f = active[k];
      remaining[f] = left[k];
      interrupt(f, now);
      left[k] = remaining[f];
      interrupted = true;
    };
    for (std::size_t i = 0; i < plan.kills.size(); ++i) {
      if (kill_fired[i] || plan.kills[i].time > now + 1e-15) continue;
      kill_fired[i] = true;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t f = active[k];
        if (failed[f] || eligible[f] > now + 1e-15) continue;
        const bool src_match =
            plan.kills[i].src == kAnySite || plan.kills[i].src == flows[f].src;
        const bool dst_match =
            plan.kills[i].dst == kAnySite || plan.kills[i].dst == flows[f].dst;
        if (src_match && dst_match) interrupt_at(k);
      }
    }
    if (!plan.outages.empty()) {
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t f = active[k];
        if (failed[f] || eligible[f] > now + 1e-15) continue;
        if (plan.site_dark_at(flows[f].src, now) ||
            plan.site_dark_at(flows[f].dst, now)) {
          interrupt_at(k);
        }
      }
    }
    if (interrupted) {
      // Failed flows leave for good, backed-off ones wait again.
      std::size_t kept = 0;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t f = active[k];
        if (failed[f]) continue;
        if (eligible[f] > now + 1e-15) {
          pending.insert(
              std::upper_bound(pending.begin(), pending.end(), f, later), f);
          continue;
        }
        active[kept] = f;
        left[kept] = left[k];
        cutoff[kept] = cutoff[k];
        ++kept;
      }
      active.resize(kept);
      left.resize(kept);
      cutoff.resize(kept);
    }
    if (unfinished == 0) break;

    double next_event = pending.empty() ? kInf : eligible[pending.back()];
    next_event = std::min(next_event, plan.next_event_after(now));
    if (!deadline_recorded && deadline > now + 1e-15) {
      next_event = std::min(next_event, deadline);
    }
    if (active.empty()) {
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
    const std::vector<double>& rates = filler.fill(capacity, flows, active);

    // Earliest event: a completion, an arrival/retry, a fault boundary,
    // or the deadline snapshot point.
    double dt = next_event - now;
    rate.resize(active.size());
    for (std::size_t k = 0; k < active.size(); ++k) {
      rate[k] = rates[active[k]];
      if (rate[k] > 0.0) dt = std::min(dt, left[k] / rate[k]);
    }
    BOHR_CHECK(dt > 0.0 && dt < kInf);

    // Advance every active flow; completed ones leave the set.
    const double then = now + dt;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t f = active[k];
      const double rest = left[k] - rate[k] * dt;
      if (rest <= cutoff[k]) {
        done[f] = true;
        --unfinished;
        report.flows[f].finish_time = then;
        report.flows[f].delivered_bytes = flows[f].bytes;
        const double duration = then - flows[f].start_time;
        report.flows[f].mean_rate =
            duration > 0.0 ? flows[f].bytes / duration : 0.0;
        continue;
      }
      active[kept] = f;
      left[kept] = rest;
      cutoff[kept] = cutoff[k];
      ++kept;
    }
    active.resize(kept);
    left.resize(kept);
    cutoff.resize(kept);
    now = then;
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
