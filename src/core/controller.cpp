#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/partitioner.h"

namespace bohr::core {

/// run_single_query's results (DESIGN.md §16, "plan cache"): per
/// (dataset, query type), one entry per distinct reduce placement, each
/// stamped with the DatasetState::version() it was computed at.
struct Controller::PlanCache {
  struct Entry {
    /// The placement by content: a bucket map, or none for the prepared
    /// LP fractions (fixed once prepare() has finished).
    std::optional<engine::ReduceBucketMap> buckets;
    std::uint64_t version = 0;
    engine::JobResult result;

    bool placed_by(const engine::ReduceBucketMap* map) const {
      if (map == nullptr || !buckets) return map == nullptr && !buckets;
      return buckets->site_count == map->site_count &&
             buckets->owner == map->owner;
    }
  };

  /// The result for the key at `version`, from the cache or from
  /// `compute()`, which runs outside the lock. When callers race to fill
  /// one key the first install wins; every racer computed the same bits.
  /// An entry from an older version is replaced, so a key holds at most
  /// one entry.
  template <typename Compute>
  engine::JobResult get(std::size_t dataset, std::size_t type,
                        const engine::ReduceBucketMap* map,
                        std::uint64_t version, const Compute& compute) {
    const std::pair key{dataset, type};
    {
      std::shared_lock lock(mu);
      const auto it = entries.find(key);
      if (it != entries.end()) {
        for (const Entry& e : it->second) {
          if (e.placed_by(map) && e.version == version) return e.result;
        }
      }
    }
    engine::JobResult result = compute();
    std::unique_lock lock(mu);
    std::vector<Entry>& slot = entries[key];
    for (Entry& e : slot) {
      if (!e.placed_by(map)) continue;
      if (e.version != version) {
        e.version = version;
        e.result = std::move(result);
      }
      return e.result;
    }
    Entry& fresh = slot.emplace_back();
    if (map != nullptr) fresh.buckets = *map;
    fresh.version = version;
    fresh.result = std::move(result);
    return fresh.result;
  }

  std::shared_mutex mu;
  /// Guarded by mu.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<Entry>> entries;
};

Controller::Controller(net::WanTopology topology,
                       std::vector<DatasetState> datasets,
                       ControllerOptions options)
    : topology_(std::move(topology)),
      datasets_(std::move(datasets)),
      options_(options),
      probe_faults_(options.faults.restricted_to(net::kPhaseProbe)),
      query_faults_(options.faults.restricted_to(net::kPhaseQuery)),
      rng_(options.seed),
      plan_cache_(std::make_unique<PlanCache>()) {
  BOHR_EXPECTS(!datasets_.empty());
  options_.faults.validate();
  const StrategyTraits traits = traits_of(options_.strategy);
  for (const auto& d : datasets_) {
    BOHR_EXPECTS(d.site_count() == topology_.site_count());
    BOHR_EXPECTS(d.has_cubes() == traits.cubes);
    total_queries_ += d.mix().total_queries();
  }
  BOHR_EXPECTS(total_queries_ > 0);
}

Controller::~Controller() = default;
Controller::Controller(Controller&&) = default;
Controller& Controller::operator=(Controller&&) = default;

engine::QuerySpec Controller::query_spec_for(const DatasetState& dataset,
                                             std::size_t type_spec) const {
  const auto& qt = dataset.bundle().query_types[type_spec];
  engine::QuerySpec spec = engine::default_spec_for(qt.kind);
  spec.dataset = dataset.dataset_id();
  spec.query_type = dataset.cube_query_type(type_spec);
  spec.intermediate_bytes_per_record = intermediate_record_bytes(dataset, spec);
  return spec;
}

double Controller::intermediate_record_bytes(
    const DatasetState& dataset, const engine::QuerySpec& spec) const {
  // One synthetic row stands for bytes_per_row/physical_record_bytes real
  // records; intermediate sizes scale by the same representation factor.
  const double representation =
      dataset.bundle().bytes_per_row / options_.physical_record_bytes;
  return spec.intermediate_bytes_per_record * representation;
}

double Controller::profiled_reduction_ratio(
    const DatasetState& dataset) const {
  // R^a = map-output bytes per input byte, before combining, averaged
  // over the dataset's query mix.
  const auto weights = dataset.mix().weights();
  double r = 0.0;
  double total_w = 0.0;
  for (std::size_t t = 0; t < dataset.bundle().query_types.size(); ++t) {
    if (weights[t] <= 0.0) continue;
    const engine::QuerySpec spec =
        engine::default_spec_for(dataset.bundle().query_types[t].kind);
    r += weights[t] * spec.selectivity * spec.intermediate_bytes_per_record /
         options_.physical_record_bytes;
    total_w += weights[t];
  }
  return total_w > 0.0 ? r / total_w : 0.0;
}

PlacementProblem Controller::build_placement_problem() const {
  const StrategyTraits traits = traits_of(options_.strategy);
  PlacementProblem problem;
  problem.topology = topology_;
  problem.lag_seconds = options_.lag_seconds;
  problem.datasets.reserve(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const DatasetState& d = datasets_[a];
    DatasetPlacementInput input;
    input.dataset_id = d.dataset_id();
    input.reduction_ratio = profiled_reduction_ratio(d);
    input.query_count = d.mix().total_queries();
    input.input_bytes.resize(d.site_count());
    input.self_similarity.assign(d.site_count(), 0.0);
    for (std::size_t i = 0; i < d.site_count(); ++i) {
      input.input_bytes[i] = d.input_bytes_at(i);
    }
    if (traits.cubes && !similarity_.empty()) {
      input.self_similarity = similarity_[a].self;
      // §4.3: only the joint formulation consumes the probe-measured
      // pair similarities (Bohr-Sim keeps Iridium's heuristic amounts
      // and uses similarity solely to pick WHICH records move, §8.1).
      if (traits.joint_lp) {
        input.pair_similarity = similarity_[a].pair;
      }
    } else if (traits.cubes) {
      // Cubes exist but no probe round ran: read self-similarity locally.
      const auto weights = d.cube_type_weights();
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        input.self_similarity[i] =
            similarity::self_similarity(d.cubes_at(i), weights);
      }
    }
    // Plain Iridium has no cubes; it profiles the effective per-site
    // ratio from previous runs. Approximate with the dataset-wide
    // combine-free ratio (similarity-agnostic, as in [27]).
    problem.datasets.push_back(std::move(input));
  }
  return problem;
}

const PrepareReport& Controller::prepare() {
  if (prepared_) return *prepared_;
  PrepareProgress progress = start_prepare();
  while (progress.completed_steps < kPrepareStepCount) {
    run_next_step(progress);
  }
  return finish_prepare(std::move(progress));
}

const PrepareReport& Controller::replan() {
  prepared_.reset();
  plan_cache_ = std::make_unique<PlanCache>();
  return prepare();
}

PrepareProgress Controller::start_prepare() {
  PrepareProgress progress;
  progress.report.faults.outages_injected = options_.faults.outages.size();
  progress.report.faults.degradations_injected =
      options_.faults.degradations.size();
  progress.report.faults.kills_injected = options_.faults.kills.size();
  return progress;
}

void Controller::run_next_step(PrepareProgress& progress) {
  switch (progress.completed_steps) {
    case 0:
      step_similarity(progress);
      break;
    case 1:
      step_placement(progress);
      break;
    case 2:
      step_plan_movement(progress);
      break;
    default:
      step_execute_movement(progress);
      break;
  }
}

// Step 1. Similarity checking (§4) for cube-backed similarity strategies.
void Controller::step_similarity(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 0);
  PrepareReport& report = progress.report;
  const StrategyTraits traits = traits_of(options_.strategy);
  if (traits.similarity_movement) {
    SimilarityOptions sim_options = options_.similarity;
    if (!probe_faults_.empty()) sim_options.faults = &probe_faults_;
    similarity_.clear();
    similarity_.reserve(datasets_.size());
    for (const auto& d : datasets_) {
      DatasetSimilarity sim = check_similarity(d, sim_options);
      report.similarity_seconds += sim.checking_seconds;
      report.probe_bytes += sim.probe_bytes;
      report.faults.probe_pairs_lost += sim.probe_pairs_lost;
      similarity_.push_back(std::move(sim));
    }
  }
  progress.completed_steps = 1;
}

// Step 2. Placement: joint LP (§5), the Iridium heuristic, or §1's
// ship-everything strawman. A joint LP that fails to converge (or is
// failure-injected) falls back to the Iridium heuristic — one rung
// down the degraded-mode ladder, never a crash.
void Controller::step_placement(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 1);
  PrepareReport& report = progress.report;
  const StrategyTraits traits = traits_of(options_.strategy);
  const PlacementProblem problem = build_placement_problem();
  if (centralizes(options_.strategy)) {
    report.decision = centralized_placement(problem);
  } else if (minimizes_bandwidth(options_.strategy)) {
    report.decision = geode_placement(problem);
  } else if (traits.joint_lp) {
    PlacementDecision joint;
    bool fall_back = options_.faults.lp_failure;
    if (!fall_back) {
      joint = joint_lp_placement(problem);
      fall_back = !joint.lp_converged;
    }
    if (fall_back) {
      const double lp_seconds = joint.lp_seconds;
      const std::size_t lp_iterations = joint.lp_iterations;
      report.decision = iridium_placement(problem);
      // The failed attempt's cost — both the profiled wall-clock and the
      // iterations the modeled QCT charge is derived from.
      report.decision.lp_seconds += lp_seconds;
      report.decision.lp_iterations += lp_iterations;
      report.decision.lp_converged = false;
      ++report.faults.lp_fallbacks;
    } else {
      report.decision = std::move(joint);
    }
  } else {
    report.decision = iridium_placement(problem);
  }
  progress.completed_steps = 2;
}

// Step 3. Plan movement in the lag before the next query (§3). All
// datasets move concurrently and share the WAN, so their flows are
// planned before any is simulated. This is the only step that draws
// from rng_, which is why snapshots persist the generator state.
void Controller::step_plan_movement(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 2);
  const StrategyTraits traits = traits_of(options_.strategy);
  progress.plans.clear();
  progress.plans.reserve(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const DatasetSimilarity* sim =
        similarity_.empty() ? nullptr : &similarity_[a];
    progress.plans.push_back(
        plan_movement(datasets_[a], progress.report.decision.move_bytes[a],
                      sim, traits.similarity_movement, rng_));
  }
  progress.completed_steps = 3;
}

// Step 4. Simulate the planned flows together (the lag verdict sees the
// shared-WAN contention, not each dataset in isolation), apply what
// landed, and — if the deadline or a dead flow cut the plan short —
// re-solve task placement for the data that actually arrived.
void Controller::step_execute_movement(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 3);
  PrepareReport& report = progress.report;
  const std::vector<MovementPlan>& plans = progress.plans;
  const net::FaultPlan move_faults =
      options_.faults.restricted_to(net::kPhaseMovement);
  // A faulted run must not pretend bytes that missed the deadline (or
  // died with their flow) arrived; a pristine run keeps the historical
  // behaviour unless truncation is explicitly requested. Crash and
  // storage faults never perturb the data plane, so they must not flip
  // this switch — recovery's byte-identity guarantee depends on it.
  const bool enforce = options_.enforce_lag_deadline ||
                       !options_.faults.data_plane_quiet();
  // Rebuilt rather than carried over from step_placement: the datasets
  // are untouched between the two steps (movement applies below), so
  // the problem is bit-identical — and a recovered process can resume
  // here without the placement step's locals.
  const PlacementProblem problem = build_placement_problem();

  std::vector<net::Flow> all_flows;
  std::vector<std::pair<std::size_t, std::size_t>> origin;  // dataset, flow
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    for (std::size_t f = 0; f < plans[a].flows.size(); ++f) {
      const PlannedFlow& pf = plans[a].flows[f];
      all_flows.push_back(net::Flow{pf.src, pf.dst, pf.bytes, 0.0});
      origin.emplace_back(a, f);
    }
  }

  std::vector<std::vector<std::size_t>> delivered(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    delivered[a].assign(plans[a].flows.size(), 0);
  }
  if (!all_flows.empty()) {
    const double deadline =
        enforce ? options_.lag_seconds
                : std::numeric_limits<double>::infinity();
    const net::FaultSimReport sim = net::simulate_flows_with_faults(
        topology_, all_flows, move_faults, deadline);
    report.faults.movement_interruptions = sim.interruptions;
    report.faults.movement_retries = sim.retries;
    report.faults.movement_flows_failed = sim.failures;
    report.movement_seconds = sim.makespan;
    for (std::size_t f = 0; f < all_flows.size(); ++f) {
      const auto [a, i] = origin[f];
      const PlannedFlow& pf = plans[a].flows[i];
      std::size_t rows = pf.row_indices.size();
      if (enforce) {
        const net::FaultyFlowResult& fr = sim.flows[f];
        const bool landed_in_time =
            fr.completed && fr.finish_time <= options_.lag_seconds + 1e-9;
        if (!landed_in_time) {
          rows = std::min(
              rows, static_cast<std::size_t>(std::floor(
                        fr.delivered_by_deadline /
                            datasets_[a].bundle().bytes_per_row +
                        1e-9)));
        }
      }
      delivered[a][i] = rows;
    }
  }

  // Each dataset's movement is one job (DESIGN §10): a body moves rows
  // and rebuilds cubes of its own dataset only, sources in ascending
  // order. The double sums fold serially, in dataset order (rule 2).
  std::vector<AppliedMovement> applied(datasets_.size());
  parallel_for(datasets_.size(), [&](std::size_t a) {
    applied[a] = apply_movement_plan(datasets_[a], plans[a],
                                     enforce ? &delivered[a] : nullptr);
  });
  for (const AppliedMovement& moved : applied) {
    report.bytes_moved += moved.bytes_moved;
    report.rows_moved += moved.rows_moved;
    report.faults.rows_truncated += moved.rows_truncated;
    report.faults.deadline_shortfall_bytes += moved.shortfall_bytes;
  }
  report.movement_within_lag =
      report.movement_seconds <= options_.lag_seconds + 1e-9;

  if (report.faults.rows_truncated > 0) {
    std::vector<std::vector<std::vector<double>>> actual =
        report.decision.move_bytes;
    for (auto& per_dataset : actual) {
      for (auto& row : per_dataset) std::fill(row.begin(), row.end(), 0.0);
    }
    for (std::size_t a = 0; a < datasets_.size(); ++a) {
      for (std::size_t i = 0; i < plans[a].flows.size(); ++i) {
        const PlannedFlow& pf = plans[a].flows[i];
        actual[a][pf.src][pf.dst] +=
            static_cast<double>(delivered[a][i]) *
            datasets_[a].bundle().bytes_per_row;
      }
    }
    const TaskPlacementResult replan = solve_task_placement(problem, actual);
    report.decision.move_bytes = std::move(actual);
    if (replan.optimal) {
      report.decision.reduce_fractions = replan.reduce_fractions;
      ++report.faults.movement_replans;
    }
  }
  progress.completed_steps = 4;
}

const PrepareReport& Controller::finish_prepare(PrepareProgress&& progress) {
  BOHR_EXPECTS(progress.completed_steps == kPrepareStepCount);
  BOHR_EXPECTS(!prepared_);
  prepared_ = std::move(progress.report);
  return *prepared_;
}

void Controller::restore_similarity(std::vector<DatasetSimilarity> sims) {
  BOHR_EXPECTS(sims.empty() || sims.size() == datasets_.size());
  similarity_ = std::move(sims);
}

DatasetState& Controller::mutable_dataset(std::size_t idx) {
  BOHR_EXPECTS(idx < datasets_.size());
  return datasets_[idx];
}

namespace {

/// Calls `run(a, t, exec, rng)` once per (dataset, query type) that
/// recurs in its dataset's mix and returns the executions in
/// dataset-then-type order.
///
/// A run that draws from the RNG goes through the serial loop on `rng`
/// itself, so its draws happen in that order. A `pure` run (the engine
/// draws nothing, see engine::consumes_rng) runs its jobs in one
/// parallel_for, each on its own copy of `rng`; each body writes only its
/// own execution, and a copy that comes back changed fails loudly rather
/// than letting a later engine change race on `rng`.
template <typename Run>
std::vector<QueryExecution> run_mix(const std::vector<DatasetState>& datasets,
                                    bool pure, Rng& rng, const Run& run) {
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  std::vector<QueryExecution> executions;
  for (std::size_t a = 0; a < datasets.size(); ++a) {
    const DatasetState& d = datasets[a];
    for (std::size_t t = 0; t < d.bundle().query_types.size(); ++t) {
      const std::size_t recurrences = d.mix().counts[t];
      if (recurrences == 0) continue;
      QueryExecution& exec = executions.emplace_back();
      exec.dataset_id = d.dataset_id();
      exec.query_type_spec = t;
      exec.kind = d.bundle().query_types[t].kind;
      exec.recurrences = recurrences;
      jobs.emplace_back(a, t);
    }
  }
  if (!pure) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      run(jobs[j].first, jobs[j].second, executions[j], rng);
    }
    return executions;
  }
  const Rng::State start = rng.state();
  parallel_for(jobs.size(), [&](std::size_t j) {
    Rng own = rng;
    run(jobs[j].first, jobs[j].second, executions[j], own);
    BOHR_CHECK(own.state() == start);
  });
  return executions;
}

}  // namespace

engine::JobConfig Controller::job_config() const {
  const StrategyTraits traits = traits_of(options_.strategy);
  engine::JobConfig job = options_.job;
  job.partition_policy = traits.cubes ? engine::PartitionPolicy::CubeSorted
                                      : engine::PartitionPolicy::ArrivalOrder;
  job.executor_assignment = traits.rdd_similarity
                                ? engine::ExecutorAssignment::SimilarityKMeans
                                : engine::ExecutorAssignment::RoundRobin;
  job.controller_overhead_seconds = 0.0;
  return job;
}

engine::JobResult Controller::execute(std::size_t dataset,
                                      std::size_t type_spec,
                                      engine::JobConfig job, Rng& rng) const {
  const DatasetState& d = datasets_[dataset];
  const engine::QuerySpec spec = query_spec_for(d, type_spec);
  job.machine.record_scale = std::max(
      1.0, d.bundle().bytes_per_row / options_.physical_record_bytes);
  const std::uint64_t salt = d.query_salt(type_spec);
  std::vector<engine::RecordStream> inputs(d.site_count());
  for (std::size_t i = 0; i < d.site_count(); ++i) {
    inputs[i] = d.map_rows(i, type_spec, spec.selectivity, salt);
  }
  return engine::run_job(topology_, inputs,
                         prepared_->decision.reduce_fractions, spec, job, rng);
}

std::vector<QueryExecution> Controller::run_all_queries() {
  const PrepareReport& prep = prepare();
  engine::JobConfig job = job_config();
  // §8.5: LP solving time is included in QCT, amortized across the
  // recurring queries the one placement serves. The charge is the
  // modeled per-iteration cost, not wall-clock lp_seconds — simulated
  // QCT must not vary with host speed or thread count.
  job.controller_overhead_seconds =
      prep.decision.modeled_lp_seconds() / static_cast<double>(total_queries_);
  // Query-phase faults hit the shuffle; the runner takes the pristine
  // path when the projection has no WAN events.
  job.faults = &query_faults_;
  return run_mix(datasets_, !engine::consumes_rng(job), rng_,
                 [&](std::size_t a, std::size_t t, QueryExecution& exec,
                     Rng& rng) { exec.result = execute(a, t, job, rng); });
}

std::vector<QueryExecution> Controller::run_query_round(
    const QueryRound& round) {
  BOHR_EXPECTS(prepared_.has_value());
  engine::JobConfig job = job_config();
  job.faults = round.faults;
  job.reduce_buckets = round.reduce_buckets;
  job.bucket_speculation = round.bucket_speculation;
  job.bucket_speculation_cap = round.bucket_speculation_cap;
  // The degradation ladder stays serial: its retries re-run the engine
  // on rng_ directly.
  const bool pure = round.degrade == nullptr && !engine::consumes_rng(job);
  return run_mix(datasets_, pure, rng_,
                 [&](std::size_t a, std::size_t t, QueryExecution& exec,
                     Rng& rng) {
                   if (round.degrade == nullptr) {
                     exec.result = execute(a, t, job, rng);
                   } else {
                     run_degraded_query(round, a, t, job, exec);
                   }
                 });
}

engine::JobResult Controller::run_single_query(
    std::size_t dataset, std::size_t type_spec,
    const engine::ReduceBucketMap* reduce_buckets, Rng& rng) const {
  BOHR_EXPECTS(prepared_.has_value());
  BOHR_EXPECTS(dataset < datasets_.size());
  const DatasetState& d = datasets_[dataset];
  BOHR_EXPECTS(type_spec < d.bundle().query_types.size());

  engine::JobConfig job = job_config();
  job.reduce_buckets = reduce_buckets;
  // Only a run that takes nothing from `rng` is a function of prepared
  // state alone; any other skips the cache and consumes `rng` as before.
  if (engine::consumes_rng(job)) {
    return execute(dataset, type_spec, std::move(job), rng);
  }
  return plan_cache_->get(dataset, type_spec, reduce_buckets, d.version(), [&] {
    return execute(dataset, type_spec, job, rng);
  });
}

void Controller::run_degraded_query(const QueryRound& round, std::size_t a,
                                    std::size_t t,
                                    const engine::JobConfig& job,
                                    QueryExecution& exec) {
  const DegradationService& degrade = *round.degrade;
  const DegradeOptions& opts = degrade.options();
  const std::size_t n = topology_.site_count();

  const auto shuffle_makespan = [](const engine::JobResult& jr) {
    double makespan = 0.0;
    for (const auto& s : jr.sites) {
      makespan = std::max(makespan, s.shuffle_finish_seconds);
    }
    return makespan;
  };

  DeadlineBudget budget(opts.deadline);
  // Probe phase: the modeled health sweep that establishes which sites
  // answer at all (control-plane cost, cheap by construction).
  budget.run_phase(QueryPhase::kProbe, [&](std::size_t, double) {
    return 5e-4 * static_cast<double>(n);
  });

  // Shuffle phase: run the job; a timed-out attempt retries against the
  // fault plan re-based to the time already spent, modeling waiting out
  // a fault window. With an empty plan the first attempt always fits,
  // so exactly one execution happens — the pristine path bit for bit.
  engine::JobResult jr;
  net::FaultPlan shifted_storage;
  const net::FaultPlan* used_plan = round.faults;
  const PhaseOutcome& sh = budget.run_phase(
      QueryPhase::kShuffle, [&](std::size_t attempt, double offset) {
        if (attempt > 0 && round.faults != nullptr) {
          shifted_storage = round.faults->shifted_by(offset);
          used_plan = &shifted_storage;
        }
        engine::JobConfig jc = job;
        jc.faults = used_plan;
        jr = execute(a, t, std::move(jc), rng_);
        return shuffle_makespan(jr);
      });
  const double makespan = std::min(shuffle_makespan(jr), sh.window_seconds);

  // Reduce phase: charge the reduce tail of the last attempt.
  const PhaseOutcome& rd = budget.run_phase(
      QueryPhase::kReduce, [&](std::size_t, double) {
        return std::max(0.0, jr.qct_seconds - shuffle_makespan(jr));
      });

  if (budget.escalated()) {
    // The budget is gone: close the round at the deadline. Re-run the
    // last attempt with a finite reduce deadline so the engine drops
    // the buckets/shares that cannot finish — QCT is bounded by the
    // budget instead of the fault horizon.
    engine::JobConfig jc = job;
    jc.faults = used_plan;
    jc.reduce_deadline_seconds =
        std::max(1e-9, makespan + rd.window_seconds);
    jr = execute(a, t, std::move(jc), rng_);
    jr.qct_seconds = std::min(jr.qct_seconds, budget.spent_seconds());
  }
  exec.result = jr;

  // Value plane: which sites' data is reachable this round.
  std::vector<bool> all_ok;
  const std::vector<bool>* ok = round.site_usable;
  if (ok == nullptr) {
    all_ok.assign(n, true);
    ok = &all_ok;
  }
  DegradedAnswer ans = degrade.answer(a, t, *ok);
  ans.round = round.round_index;

  // Fold the engine's partial close-out into the answer: an "exact"
  // answer whose reduce dropped work is only coverage-exact.
  const std::size_t total_partitions =
      round.reduce_buckets != nullptr
          ? round.reduce_buckets->bucket_count()
          : n;
  const double dropped = std::min(1.0, jr.reduce_dropped_fraction);
  const std::size_t dropped_parts = std::min(
      total_partitions,
      static_cast<std::size_t>(dropped * static_cast<double>(
                                             total_partitions) +
                               0.5));
  if (ans.mode == AnswerMode::kSubstituted ||
      ans.mode == AnswerMode::kPrior) {
    ans.partitions_substituted =
        static_cast<std::uint32_t>(total_partitions);
  } else {
    ans.partitions_dropped = static_cast<std::uint32_t>(dropped_parts);
    ans.partitions_exact =
        static_cast<std::uint32_t>(total_partitions - dropped_parts);
    if (jr.reduce_partial && dropped > 0.0 &&
        ans.mode == AnswerMode::kExact) {
      // The surviving buckets are an unbiased sample, so the value
      // keeps its rescaled estimate, but certainty is gone.
      ans.mode = AnswerMode::kPartial;
      ans.coverage = std::min(ans.coverage, 1.0 - dropped);
      ans.error_estimate = std::min(
          1.0, opts.error_floor +
                   dropped * (1.0 - opts.partial_skew_weight));
    }
  }

  std::size_t attempts_total = 0;
  for (const PhaseOutcome& o : budget.outcomes()) {
    attempts_total += o.attempts;
  }
  ans.retries =
      static_cast<std::uint32_t>(attempts_total - budget.outcomes().size());
  for (const PhaseOutcome& o : budget.outcomes()) {
    if (o.verdict == PhaseVerdict::kEscalated) {
      ans.escalated_phase = static_cast<std::uint8_t>(o.phase);
      break;
    }
  }
  ans.qct_seconds = exec.result.qct_seconds;
  exec.degraded = ans;
}

}  // namespace bohr::core
