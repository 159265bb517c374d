#include "core/deadline.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace bohr::core {

namespace {
// Tolerance for "fits the window" so a phase whose duration equals its
// budget (common with modeled costs) is not spuriously escalated.
constexpr double kFitEpsilon = 1e-9;

void require(bool ok, const char* field, const char* what) {
  if (!ok) {
    throw ContractViolation(std::string("DeadlineOptions.") + field + " " +
                            what);
  }
}
}  // namespace

void DeadlineOptions::validate() const {
  require(total_seconds > 0.0, "total_seconds", "must be > 0");
  require(probe_share >= 0.0, "probe_share", "must be >= 0");
  require(shuffle_share >= 0.0, "shuffle_share", "must be >= 0");
  require(reduce_share >= 0.0, "reduce_share", "must be >= 0");
  require(probe_share + shuffle_share + reduce_share > 0.0, "shares",
          "must sum to > 0");
  require(backoff_base_seconds >= 0.0, "backoff_base_seconds",
          "must be >= 0");
  require(backoff_cap_seconds >= backoff_base_seconds,
          "backoff_cap_seconds", "must be >= backoff_base_seconds");
}

double DeadlineOptions::phase_budget(QueryPhase phase) const {
  const double shares[kQueryPhaseCount] = {probe_share, shuffle_share,
                                           reduce_share};
  const double sum = shares[0] + shares[1] + shares[2];
  return total_seconds * shares[static_cast<std::size_t>(phase)] / sum;
}

double DeadlineOptions::backoff(std::size_t attempt) const {
  if (attempt == 0) return 0.0;
  // SiteHealthMonitor idiom: cap the shift so arbitrarily many retries
  // never overflow, then cap the charge.
  const std::size_t shift = std::min<std::size_t>(attempt - 1, 20);
  return std::min(backoff_cap_seconds,
                  backoff_base_seconds *
                      static_cast<double>(std::uint64_t{1} << shift));
}

DeadlineBudget::DeadlineBudget(const DeadlineOptions& options)
    : options_(options) {
  options_.validate();
  outcomes_.reserve(kQueryPhaseCount);
}

double DeadlineBudget::remaining_seconds() const {
  return std::max(0.0, options_.total_seconds - spent_);
}

const PhaseOutcome& DeadlineBudget::run_phase(
    QueryPhase phase,
    const std::function<double(std::size_t, double)>& attempt_fn) {
  const double nominal = options_.phase_budget(phase);
  const double total_left = remaining_seconds();
  double window = std::min(nominal + rollover_, total_left);
  double used = 0.0;
  std::size_t attempts = 0;
  PhaseVerdict verdict = PhaseVerdict::kEscalated;

  while (true) {
    const double raw = attempt_fn(attempts, spent_ + used);
    const double duration = raw > 0.0 ? raw : 0.0;
    ++attempts;
    if (used + duration <= window + kFitEpsilon) {
      used = std::min(used + duration, window);
      verdict = attempts == 1 ? PhaseVerdict::kMet
                              : PhaseVerdict::kMetAfterRetry;
      break;
    }
    // Timed out: the attempt is abandoned at the window edge.
    used = window;
    if (attempts > options_.max_retries) break;
    const double backoff = options_.backoff(attempts);
    const double available = total_left - used;
    if (available <= backoff) break;  // cannot even pay the backoff
    used += backoff;
    const double extension = std::min(nominal, total_left - used);
    if (extension <= 0.0) break;
    window = used + extension;  // borrow another window from the total
  }

  PhaseOutcome outcome;
  outcome.phase = phase;
  outcome.verdict = verdict;
  outcome.attempts = attempts;
  outcome.spent_seconds = used;
  outcome.window_seconds = window;
  spent_ += used;
  rollover_ = std::max(0.0, rollover_ + nominal - used);
  escalated_ = escalated_ || verdict == PhaseVerdict::kEscalated;
  outcomes_.push_back(outcome);
  return outcomes_.back();
}

}  // namespace bohr::core
