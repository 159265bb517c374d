// Per-query deadline budget manager.
//
// A query gets one QCT budget, split hierarchically across its phases
// (probe -> shuffle -> reduce). Each phase runs attempts against a
// phase-local window; a timed-out attempt is retried after an
// exponential backoff (the SiteHealthMonitor idiom: base * 2^n, shift
// capped, charge capped), borrowing the extra time from the query's
// remaining total. When retries or the total budget run out the phase
// ESCALATES: the caller must degrade (close the reduce partially,
// substitute a similar cube, or fall back to prior-only answers) rather
// than block. Total charged time never exceeds the budget, so a
// degraded query's QCT is bounded by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace bohr::core {

/// Query phases in budget order.
enum class QueryPhase { kProbe = 0, kShuffle = 1, kReduce = 2 };
inline constexpr std::size_t kQueryPhaseCount = 3;

struct DeadlineOptions {
  /// Total QCT budget for one query, seconds of modeled time.
  double total_seconds = 60.0;
  /// Hierarchical split; normalized, so only ratios matter. Unspent
  /// phase budget rolls forward to later phases.
  double probe_share = 0.1;
  double shuffle_share = 0.6;
  double reduce_share = 0.3;
  /// Bounded retries per phase (attempts = retries + 1).
  std::size_t max_retries = 2;
  /// Exponential backoff between attempts: base * 2^(attempt-1), shift
  /// capped so thousands of retries cannot overflow, charge capped at
  /// backoff_cap_seconds (mirrors SiteHealthMonitor::probe_site).
  double backoff_base_seconds = 0.5;
  double backoff_cap_seconds = 8.0;

  /// Throws ContractViolation naming the offending field.
  void validate() const;

  /// Nominal window of `phase`: its normalized share of total_seconds.
  double phase_budget(QueryPhase phase) const;
  /// Backoff charged before retry attempt `attempt` (1-based retry).
  double backoff(std::size_t attempt) const;
};

/// How a phase ended.
enum class PhaseVerdict {
  kMet,           ///< first attempt fit the window
  kMetAfterRetry, ///< a retry fit after backoff
  kEscalated,     ///< retries or budget exhausted -> degrade
};

struct PhaseOutcome {
  QueryPhase phase = QueryPhase::kProbe;
  PhaseVerdict verdict = PhaseVerdict::kMet;
  std::size_t attempts = 0;
  /// Modeled seconds charged to this phase (work + backoffs), capped so
  /// the sum over phases never exceeds total_seconds.
  double spent_seconds = 0.0;
  /// The window the phase had available (nominal share + rollover +
  /// any borrowed retry extensions actually granted).
  double window_seconds = 0.0;
};

/// One query's budget. Phases must be run in order; each run_phase call
/// consumes from the shared total.
class DeadlineBudget {
 public:
  /// Copies `options`; calls options.validate().
  explicit DeadlineBudget(const DeadlineOptions& options);

  /// Runs one phase. `attempt_fn(attempt, offset_seconds)` models one
  /// attempt: `attempt` is 0-based, `offset_seconds` is the total time
  /// already charged to this query when the attempt starts (callers use
  /// it to re-base fault plans); it returns the attempt's modeled
  /// duration in seconds (non-negative; +inf = never finishes). An
  /// attempt fits if its duration fits the remaining window; otherwise
  /// the window is charged in full, a backoff is charged, and the
  /// window is extended from the remaining total for the retry. Returns
  /// the outcome (also retained; see outcomes()).
  const PhaseOutcome& run_phase(
      QueryPhase phase,
      const std::function<double(std::size_t, double)>& attempt_fn);

  /// Total modeled seconds charged so far; <= total_seconds always.
  double spent_seconds() const { return spent_; }
  /// Budget still available to later phases.
  double remaining_seconds() const;
  /// True once any phase escalated.
  bool escalated() const { return escalated_; }
  const std::vector<PhaseOutcome>& outcomes() const { return outcomes_; }

 private:
  DeadlineOptions options_;
  double spent_ = 0.0;
  double rollover_ = 0.0;  // unspent nominal budget from earlier phases
  bool escalated_ = false;
  std::vector<PhaseOutcome> outcomes_;
};

}  // namespace bohr::core
