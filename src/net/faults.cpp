#include "net/faults.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/check.h"
#include "common/hash.h"

namespace bohr::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool window_covers(double start, double end, double t) {
  return start <= t && t < end;
}

}  // namespace

bool FaultPlan::empty() const {
  return data_plane_quiet() && crash_after_phase.empty() &&
         storage_faults.empty();
}

bool FaultPlan::data_plane_quiet() const {
  return wan_quiet() && slowdowns.empty() && probe_loss_probability <= 0.0 &&
         !lp_failure;
}

bool FaultPlan::wan_quiet() const {
  return outages.empty() && degradations.empty() && kills.empty();
}

FaultPlan FaultPlan::restricted_to(unsigned phase) const {
  FaultPlan out;
  out.seed = seed;
  out.retry = retry;
  out.lp_failure = lp_failure;
  if ((phase & kPhaseProbe) != 0) {
    out.probe_loss_probability = probe_loss_probability;
  }
  for (const auto& o : outages) {
    if ((o.phases & phase) != 0) out.outages.push_back(o);
  }
  for (const auto& d : degradations) {
    if ((d.phases & phase) != 0) out.degradations.push_back(d);
  }
  for (const auto& k : kills) {
    if ((k.phases & phase) != 0) out.kills.push_back(k);
  }
  for (const auto& s : slowdowns) {
    if ((s.phases & phase) != 0) out.slowdowns.push_back(s);
  }
  return out;
}

FaultPlan FaultPlan::shifted_by(double offset) const {
  FaultPlan out;
  out.seed = seed;
  out.retry = retry;
  out.lp_failure = lp_failure;
  out.probe_loss_probability = probe_loss_probability;
  const auto shift_window = [&](auto event) -> std::optional<decltype(event)> {
    event.end -= offset;
    if (event.end <= 0.0) return std::nullopt;  // entirely in the past
    event.start = std::max(0.0, event.start - offset);
    return event;
  };
  for (const auto& o : outages) {
    if (auto shifted = shift_window(o)) out.outages.push_back(*shifted);
  }
  for (const auto& d : degradations) {
    if (auto shifted = shift_window(d)) out.degradations.push_back(*shifted);
  }
  for (const auto& s : slowdowns) {
    if (auto shifted = shift_window(s)) out.slowdowns.push_back(*shifted);
  }
  for (const auto& k : kills) {
    if (k.time < offset) continue;
    FlowKill shifted = k;
    shifted.time -= offset;
    out.kills.push_back(shifted);
  }
  return out;
}

bool FaultPlan::site_dark_at(SiteId site, double t) const {
  for (const auto& o : outages) {
    if (o.site == site && window_covers(o.start, o.end, t)) return true;
  }
  return false;
}

double FaultPlan::recovery_time(SiteId site, double t) const {
  // Outage windows may overlap or abut; chase the latest end reachable
  // from t through covering windows.
  double recovered = t;
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (const auto& o : outages) {
      if (o.site == site && window_covers(o.start, o.end, recovered) &&
          o.end > recovered) {
        recovered = o.end;
        advanced = true;
      }
    }
  }
  return recovered;
}

double FaultPlan::uplink_factor(SiteId site, double t) const {
  if (site_dark_at(site, t)) return 0.0;
  double factor = 1.0;
  for (const auto& d : degradations) {
    if (d.site == site && d.uplink && window_covers(d.start, d.end, t)) {
      factor = std::min(factor, d.factor);
    }
  }
  return factor;
}

double FaultPlan::downlink_factor(SiteId site, double t) const {
  if (site_dark_at(site, t)) return 0.0;
  double factor = 1.0;
  for (const auto& d : degradations) {
    if (d.site == site && d.downlink && window_covers(d.start, d.end, t)) {
      factor = std::min(factor, d.factor);
    }
  }
  return factor;
}

double FaultPlan::compute_slowdown(SiteId site, double t) const {
  double factor = 1.0;
  for (const auto& s : slowdowns) {
    if (s.site == site && window_covers(s.start, s.end, t)) {
      factor = std::max(factor, s.factor);
    }
  }
  return factor;
}

double FaultPlan::next_event_after(double t) const {
  double next = kInf;
  const auto consider = [&](double edge) {
    if (edge > t + 1e-15) next = std::min(next, edge);
  };
  for (const auto& o : outages) {
    consider(o.start);
    consider(o.end);
  }
  for (const auto& d : degradations) {
    consider(d.start);
    consider(d.end);
  }
  for (const auto& k : kills) consider(k.time);
  return next;
}

bool FaultPlan::probe_lost(std::size_t dataset_id, SiteId from,
                           SiteId to) const {
  if (probe_loss_probability <= 0.0) return false;
  if (probe_loss_probability >= 1.0) return true;
  std::uint64_t h = hash_combine(seed, dataset_id);
  h = hash_combine(h, static_cast<std::uint64_t>(from) + 1);
  h = hash_combine(h, static_cast<std::uint64_t>(to) + 1);
  const double u =
      static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;  // uniform [0,1)
  return u < probe_loss_probability;
}

void FaultPlan::validate() const {
  for (const auto& o : outages) {
    BOHR_EXPECTS(std::isfinite(o.start) && std::isfinite(o.end));
    BOHR_EXPECTS(o.start >= 0.0 && o.end > o.start);
  }
  for (const auto& d : degradations) {
    BOHR_EXPECTS(std::isfinite(d.start) && std::isfinite(d.end));
    BOHR_EXPECTS(d.start >= 0.0 && d.end > d.start);
    BOHR_EXPECTS(d.factor >= 0.0 && d.factor <= 1.0);
    BOHR_EXPECTS(d.uplink || d.downlink);
  }
  for (const auto& k : kills) {
    BOHR_EXPECTS(std::isfinite(k.time) && k.time >= 0.0);
  }
  for (const auto& s : slowdowns) {
    BOHR_EXPECTS(std::isfinite(s.start) && std::isfinite(s.end));
    BOHR_EXPECTS(s.start >= 0.0 && s.end > s.start);
    BOHR_EXPECTS(std::isfinite(s.factor) && s.factor >= 1.0);
  }
  BOHR_EXPECTS(probe_loss_probability >= 0.0 && probe_loss_probability <= 1.0);
  BOHR_EXPECTS(retry.backoff_base_seconds >= 0.0);
  BOHR_EXPECTS(retry.backoff_cap_seconds >= retry.backoff_base_seconds);
  for (const auto& s : storage_faults) {
    BOHR_EXPECTS(std::isfinite(s.fraction));
    BOHR_EXPECTS(s.fraction >= 0.0 && s.fraction < 1.0);
  }
}

namespace {

[[noreturn]] void bad_spec(const std::string& clause, const std::string& why) {
  throw ContractViolation("bad fault clause '" + clause + "': " + why);
}

double parse_num(const std::string& clause, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) bad_spec(clause, "trailing junk in '" + value + "'");
    return v;
  } catch (const ContractViolation&) {
    throw;
  } catch (const std::exception&) {
    bad_spec(clause, "not a number: '" + value + "'");
  }
}

/// A site index, seed, retry count, file index or bit: a whole unsigned
/// number, digits only, that fits in 64 bits.
std::uint64_t parse_whole(const std::string& clause,
                          const std::string& value) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    bad_spec(clause, "not a whole number: '" + value + "'");
  }
  return v;
}

unsigned parse_phases(const std::string& clause, const std::string& value) {
  unsigned mask = 0;
  std::stringstream stream(value);
  std::string part;
  while (std::getline(stream, part, '+')) {
    if (part == "probe") {
      mask |= kPhaseProbe;
    } else if (part == "move") {
      mask |= kPhaseMovement;
    } else if (part == "query") {
      mask |= kPhaseQuery;
    } else {
      bad_spec(clause, "unknown phase '" + part + "'");
    }
  }
  if (mask == 0) bad_spec(clause, "empty phase list");
  return mask;
}

/// key=value pairs of one clause, consumed by name with required/optional
/// lookups so unknown keys are rejected.
struct ClauseArgs {
  const std::string& clause;
  std::vector<std::pair<std::string, std::string>> pairs;

  const std::string* find(const std::string& key) {
    for (auto& [k, v] : pairs) {
      if (k == key) {
        k.clear();  // mark consumed
        return &v;
      }
    }
    return nullptr;
  }
  std::string require(const std::string& key) {
    const std::string* v = find(key);
    if (v == nullptr) bad_spec(clause, "missing " + key + "=");
    return *v;
  }
  void finish() {
    for (const auto& [k, v] : pairs) {
      if (!k.empty()) bad_spec(clause, "unknown key '" + k + "'");
    }
  }
};

ClauseArgs split_args(const std::string& clause, const std::string& body) {
  ClauseArgs args{clause, {}};
  std::stringstream stream(body);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_spec(clause, "expected key=value, got '" + item + "'");
    }
    args.pairs.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return args;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::stringstream clauses(spec);
  std::string clause;
  while (std::getline(clauses, clause, ';')) {
    if (clause.empty()) continue;
    const std::size_t colon = clause.find(':');
    const std::string head = clause.substr(0, colon);
    const std::string body =
        colon == std::string::npos ? "" : clause.substr(colon + 1);

    if (head == "lp-failure") {
      if (!body.empty()) bad_spec(clause, "takes no arguments");
      plan.lp_failure = true;
      continue;
    }
    ClauseArgs args = split_args(clause, body);
    if (head == "outage") {
      OutageWindow o;
      o.site = parse_whole(clause, args.require("site"));
      o.start = parse_num(clause, args.require("start"));
      o.end = parse_num(clause, args.require("end"));
      if (const auto* p = args.find("phases")) o.phases = parse_phases(clause, *p);
      if (!(o.end > o.start)) bad_spec(clause, "end must exceed start");
      plan.outages.push_back(o);
    } else if (head == "degrade") {
      LinkDegradation d;
      d.site = parse_whole(clause, args.require("site"));
      d.start = parse_num(clause, args.require("start"));
      d.end = parse_num(clause, args.require("end"));
      d.factor = parse_num(clause, args.require("factor"));
      if (const auto* link = args.find("link")) {
        d.uplink = *link == "up" || *link == "both";
        d.downlink = *link == "down" || *link == "both";
        if (!d.uplink && !d.downlink) {
          bad_spec(clause, "link must be up|down|both");
        }
      }
      if (const auto* p = args.find("phases")) d.phases = parse_phases(clause, *p);
      if (!(d.end > d.start)) bad_spec(clause, "end must exceed start");
      if (d.factor < 0.0 || d.factor > 1.0) {
        bad_spec(clause, "factor must be in [0,1]");
      }
      plan.degradations.push_back(d);
    } else if (head == "kill") {
      FlowKill k;
      k.time = parse_num(clause, args.require("time"));
      if (const auto* s = args.find("src")) {
        k.src = parse_whole(clause, *s);
      }
      if (const auto* d = args.find("dst")) {
        k.dst = parse_whole(clause, *d);
      }
      if (const auto* p = args.find("phases")) k.phases = parse_phases(clause, *p);
      plan.kills.push_back(k);
    } else if (head == "slow-site") {
      SiteSlowdown s;
      s.site = parse_whole(clause, args.require("site"));
      s.start = parse_num(clause, args.require("start"));
      s.end = parse_num(clause, args.require("end"));
      if (const auto* f = args.find("factor")) s.factor = parse_num(clause, *f);
      if (const auto* p = args.find("phases")) s.phases = parse_phases(clause, *p);
      if (!(s.end > s.start)) bad_spec(clause, "end must exceed start");
      if (s.factor < 1.0) bad_spec(clause, "factor must be >= 1");
      plan.slowdowns.push_back(s);
    } else if (head == "probe-loss") {
      plan.probe_loss_probability = parse_num(clause, args.require("p"));
      if (const auto* s = args.find("seed")) {
        plan.seed = parse_whole(clause, *s);
      }
      if (plan.probe_loss_probability < 0.0 ||
          plan.probe_loss_probability > 1.0) {
        bad_spec(clause, "p must be in [0,1]");
      }
    } else if (head == "crash") {
      const std::string phase = args.require("phase");
      if (phase.empty()) bad_spec(clause, "phase must be non-empty");
      if (!plan.crash_after_phase.empty()) {
        bad_spec(clause, "only one crash point per plan");
      }
      plan.crash_after_phase = phase;
    } else if (head == "torn-write") {
      StorageFault s;
      s.kind = StorageFault::Kind::kTornWrite;
      s.file_index = parse_whole(clause, args.require("file"));
      if (const auto* f = args.find("fraction")) {
        s.fraction = parse_num(clause, *f);
      }
      if (s.fraction < 0.0 || s.fraction >= 1.0) {
        bad_spec(clause, "fraction must be in [0,1)");
      }
      plan.storage_faults.push_back(s);
    } else if (head == "bit-flip") {
      StorageFault s;
      s.kind = StorageFault::Kind::kBitFlip;
      s.file_index = parse_whole(clause, args.require("file"));
      if (const auto* b = args.find("bit")) s.bit = parse_whole(clause, *b);
      plan.storage_faults.push_back(s);
    } else if (head == "retry") {
      plan.retry.max_retries = parse_whole(clause, args.require("max"));
      plan.retry.backoff_base_seconds = parse_num(clause, args.require("base"));
      if (const auto* c = args.find("cap")) {
        plan.retry.backoff_cap_seconds = parse_num(clause, *c);
      }
      if (const auto* m = args.find("mode")) {
        if (*m == "resume") {
          plan.retry.resume = true;
        } else if (*m == "restart") {
          plan.retry.resume = false;
        } else {
          bad_spec(clause, "mode must be resume|restart");
        }
      }
    } else {
      bad_spec(clause, "unknown clause type '" + head + "'");
    }
    args.finish();
  }
  plan.validate();
  return plan;
}

}  // namespace bohr::net
