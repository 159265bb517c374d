// The Bohr controller (§3): pre-processing, similarity checking, data and
// task placement, movement, and query execution for one of the six
// schemes of §8.1.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/movement.h"

#include "net/faults.h"
#include "net/transfer.h"
#include "core/degrade.h"
#include "core/placement.h"
#include "core/similarity_service.h"
#include "core/state.h"
#include "core/strategy.h"
#include "engine/job_runner.h"

namespace bohr::core {

struct ControllerOptions {
  Strategy strategy = Strategy::Bohr;
  SimilarityOptions similarity;
  /// T — lag between recurring query arrivals (movement budget).
  double lag_seconds = 30.0;
  engine::JobConfig job;
  /// Physical bytes of one raw input record; converts the workload's
  /// logical bytes_per_row into intermediate-record sizes.
  double physical_record_bytes = 256.0;
  std::uint64_t seed = 7;
  /// Injected WAN/control-plane faults (empty plan = provably inert:
  /// the pristine code path is taken everywhere).
  net::FaultPlan faults;
  /// Truncate movement at the lag deadline T and re-plan reduce tasks
  /// for what actually landed. Forced on whenever `faults` is non-empty
  /// (a faulted run must not pretend late bytes arrived); off by default
  /// so the Centralized strawman keeps its defining ship-everything
  /// behaviour.
  bool enforce_lag_deadline = false;
};

/// Fault accounting for one controller run: what the plan injected and
/// which degraded modes the control plane actually took.
struct FaultReport {
  // Injected by the plan.
  std::size_t outages_injected = 0;
  std::size_t degradations_injected = 0;
  std::size_t kills_injected = 0;
  // Fallbacks and recoveries taken.
  std::size_t probe_pairs_lost = 0;   ///< pairs downgraded to agnostic
  std::size_t lp_fallbacks = 0;       ///< joint LP -> Iridium heuristic
  std::size_t movement_interruptions = 0;
  std::size_t movement_retries = 0;
  std::size_t movement_flows_failed = 0;  ///< abandoned after max retries
  std::size_t movement_replans = 0;   ///< reduce placement re-solved
  std::size_t rows_truncated = 0;     ///< planned rows cut by deadline
  double deadline_shortfall_bytes = 0.0;

  /// True when any degraded mode fired.
  bool any_fallback() const {
    return probe_pairs_lost > 0 || lp_fallbacks > 0 ||
           movement_interruptions > 0 || movement_retries > 0 ||
           movement_flows_failed > 0 || movement_replans > 0 ||
           rows_truncated > 0;
  }
};

/// What prepare() did before queries arrive.
struct PrepareReport {
  double similarity_seconds = 0.0;  ///< probe build + evaluate (wall clock)
  double probe_bytes = 0.0;
  PlacementDecision decision;
  double movement_seconds = 0.0;  ///< simulated WAN time of data movement
  double bytes_moved = 0.0;
  std::size_t rows_moved = 0;
  bool movement_within_lag = true;
  FaultReport faults;
};

/// Intermediate state of a staged prepare() run. The checkpoint
/// subsystem drives the steps one at a time and snapshots at each
/// boundary; `plans` carries the movement plan between the planning and
/// execution steps so a restart can resume mid-movement.
struct PrepareProgress {
  PrepareReport report;
  std::vector<MovementPlan> plans;  ///< valid once step_plan_movement ran
  std::size_t completed_steps = 0;  ///< 0..kPrepareStepCount
};

/// Result of one recurring query type over one dataset.
struct QueryExecution {
  std::size_t dataset_id = 0;
  std::size_t query_type_spec = 0;
  engine::QueryKind kind = engine::QueryKind::Aggregation;
  std::size_t recurrences = 0;  ///< how many queries of this type recur
  engine::JobResult result;
  /// Degradation-ladder answer for this query (set iff the round ran
  /// with a DegradationService; always set then — exact answers are
  /// recorded as mode kExact with error 0).
  std::optional<DegradedAnswer> degraded;
};

class Controller {
 public:
  Controller(net::WanTopology topology, std::vector<DatasetState> datasets,
             ControllerOptions options);
  ~Controller();
  Controller(Controller&&);
  Controller& operator=(Controller&&);

  /// Runs everything that happens in the lag before queries arrive:
  /// similarity checking (if the strategy uses it), placement (heuristic
  /// or joint LP), and data movement. Idempotent per controller.
  /// Equivalent to driving the staged steps below in order.
  const PrepareReport& prepare();

  /// Plans again on the datasets as they are now (dynamic datasets,
  /// §8.6): drops the finished report and every plan-cache entry, then
  /// runs prepare(). The cache goes whole because a new plan can change
  /// the reduce fractions of a dataset whose rows kept their version.
  const PrepareReport& replan();

  /// --- staged prepare ---------------------------------------------------
  /// The same pipeline cut at its phase boundaries so the checkpoint
  /// subsystem can snapshot between steps and a recovered process can
  /// resume from the last completed one. Steps must run in order:
  /// similarity, placement, plan_movement, execute_movement.
  static constexpr std::size_t kPrepareStepCount = 4;
  PrepareProgress start_prepare();
  /// Runs the step after `progress.completed_steps`; a step called out
  /// of order throws ContractViolation.
  void run_next_step(PrepareProgress& progress);
  void step_similarity(PrepareProgress& progress);
  void step_placement(PrepareProgress& progress);
  void step_plan_movement(PrepareProgress& progress);
  void step_execute_movement(PrepareProgress& progress);
  /// Records the finished report; further prepare() calls return it.
  const PrepareReport& finish_prepare(PrepareProgress&& progress);

  /// --- recovery hooks ---------------------------------------------------
  /// Restore internal state captured in a snapshot. Only meaningful
  /// before any step has run on this instance.
  void restore_similarity(std::vector<DatasetSimilarity> sims);
  Rng::State rng_state() const { return rng_.state(); }
  void restore_rng(const Rng::State& s) { rng_.restore(s); }
  /// A dataset to restore or append to. Appends between plans are
  /// allowed: a changed row version retires the dataset's cached query
  /// results, and replan() places the new rows.
  DatasetState& mutable_dataset(std::size_t idx);

  /// Executes every dataset's query mix once per query type; recurrences
  /// are recorded so averages weight by query count.
  std::vector<QueryExecution> run_all_queries();

  /// One churn-round execution of the full query mix with an externally
  /// supplied fault projection and (optionally) a reduce-bucket map
  /// standing in for the prepared fractions. The elastic migration
  /// runner re-bases the run-clock fault plan onto each round's
  /// phase-local clock and moves buckets between rounds; this is its
  /// hook into query execution. prepare() must have completed. LP
  /// overhead is excluded from QCT here — it is wall-clock profiling
  /// noise, and the churn comparison (migration on vs off) must differ
  /// only in placement.
  struct QueryRound {
    const net::FaultPlan* faults = nullptr;
    const engine::ReduceBucketMap* reduce_buckets = nullptr;
    bool bucket_speculation = false;
    double bucket_speculation_cap = 1.5;
    /// Degradation ladder (null = off, historical path bit for bit).
    /// When set, every query runs under the service's deadline budget —
    /// timed-out shuffles retry against a re-based fault plan, an
    /// exhausted budget closes the reduce partially — and gets a
    /// DegradedAnswer whose value plane uses `site_usable` (health
    /// monitor + outage mask; null = all sites usable).
    const DegradationService* degrade = nullptr;
    const std::vector<bool>* site_usable = nullptr;
    std::uint64_t round_index = 0;
  };
  std::vector<QueryExecution> run_query_round(const QueryRound& round);

  /// One (dataset, query-type) execution for the online serving loop:
  /// the same job config as run_query_round, but const and re-entrant —
  /// concurrent serving batches call this on shared controller state,
  /// each thread with its own caller-owned Rng stream. `reduce_buckets`
  /// (nullable) stands in for the prepared LP fractions exactly like the
  /// churn rounds, so the serving loop can hand each batch the bucket map
  /// of its admission epoch. prepare() must have completed. No fault plan
  /// and no degradation ladder: the serving path models a healthy steady
  /// state.
  ///
  /// Results are cached per (dataset, query type, reduce placement) for
  /// as long as the dataset's rows keep their version (DESIGN.md §16,
  /// "plan cache"), so a recurring query skips the engine. Only runs
  /// that take nothing from `rng` are cached — Bohr-RDD executor
  /// assignment and no stragglers — so a cached and a fresh answer are
  /// the same bits; any other configuration runs the engine every time
  /// and draws from `rng` as before.
  engine::JobResult run_single_query(
      std::size_t dataset, std::size_t type_spec,
      const engine::ReduceBucketMap* reduce_buckets, Rng& rng) const;

  /// The finished prepare() report. Requires prepare() to have run;
  /// const so read-only consumers (the serving loop) can reach the
  /// placement decision without the idempotent-rerun entry point.
  const PrepareReport& prepare_report() const {
    BOHR_EXPECTS(prepared_.has_value());
    return *prepared_;
  }

  const net::WanTopology& topology() const { return topology_; }
  const std::vector<DatasetState>& datasets() const { return datasets_; }
  const ControllerOptions& options() const { return options_; }
  const std::vector<DatasetSimilarity>& similarity() const {
    return similarity_;
  }

  /// Profiled R^a: map-output bytes / input bytes for a dataset, averaged
  /// over its query mix (the paper profiles this from prior runs).
  double profiled_reduction_ratio(const DatasetState& dataset) const;

  /// Intermediate record size on the wire for a query over a dataset.
  double intermediate_record_bytes(const DatasetState& dataset,
                                   const engine::QuerySpec& spec) const;

  /// Builds the placement-problem inputs from current dataset state.
  PlacementProblem build_placement_problem() const;

 private:
  /// The strategy's job config: options().job with its partition policy
  /// and executor assignment, and no LP overhead. Callers set the rest.
  engine::JobConfig job_config() const;

  /// The one query-execution path (DESIGN.md §16): maps every site's rows
  /// of (dataset, type_spec) under the query salt and runs the job on the
  /// prepared reduce fractions, with `job` scaled to the dataset's
  /// records. prepare() must have completed.
  engine::JobResult execute(std::size_t dataset, std::size_t type_spec,
                            engine::JobConfig job, Rng& rng) const;

  /// One query under the degradation ladder: deadline-budgeted engine
  /// run (retries, partial close-out) plus the value-plane answer.
  void run_degraded_query(const QueryRound& round, std::size_t a,
                          std::size_t t, const engine::JobConfig& job,
                          QueryExecution& exec);

  engine::QuerySpec query_spec_for(const DatasetState& dataset,
                                   std::size_t type_spec) const;

  net::WanTopology topology_;
  std::vector<DatasetState> datasets_;
  ControllerOptions options_;
  /// Phase projections of options_.faults (stable storage for the
  /// pointers handed to the similarity service and job runner).
  net::FaultPlan probe_faults_;
  net::FaultPlan query_faults_;
  std::vector<DatasetSimilarity> similarity_;  // per dataset (if computed)
  std::optional<PrepareReport> prepared_;
  std::size_t total_queries_ = 0;
  Rng rng_;
  /// run_single_query's results; held by pointer so the controller
  /// stays movable.
  struct PlanCache;
  std::unique_ptr<PlanCache> plan_cache_;
};

}  // namespace bohr::core
