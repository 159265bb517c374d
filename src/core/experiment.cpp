#include "core/experiment.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/stats.h"
#include "core/checkpoint.h"
#include "workload/dynamic.h"

namespace bohr::core {

net::WanTopology ExperimentConfig::make_topology() const {
  return net::make_paper_topology(base_bandwidth, downlink_multiplier);
}

namespace {

/// Generates the shared inputs: bundles and query mixes are identical
/// across schemes so comparisons are apples-to-apples.
struct SharedInputs {
  std::vector<workload::DatasetBundle> bundles;
  std::vector<workload::DatasetQueryMix> mixes;
};

SharedInputs make_inputs(const ExperimentConfig& config) {
  SharedInputs inputs;
  Rng mix_rng(hash_combine(config.seed, 0xA11CE));
  workload::GeneratorConfig gen = config.generator;
  gen.seed = hash_combine(config.seed, gen.seed);
  for (std::size_t a = 0; a < config.n_datasets; ++a) {
    inputs.bundles.push_back(
        workload::generate_dataset(config.workload, a, gen));
    inputs.mixes.push_back(
        workload::sample_query_mix(inputs.bundles.back(), mix_rng));
  }
  return inputs;
}

/// Moves each bundle and mix into its state; a caller that keeps the
/// inputs passes a copy.
std::vector<DatasetState> make_states(SharedInputs inputs, bool with_cubes) {
  std::vector<DatasetState> states;
  states.reserve(inputs.bundles.size());
  for (std::size_t a = 0; a < inputs.bundles.size(); ++a) {
    states.emplace_back(std::move(inputs.bundles[a]),
                        std::move(inputs.mixes[a]), with_cubes);
  }
  return states;
}

ControllerOptions make_controller_options(const ExperimentConfig& config,
                                          Strategy strategy) {
  ControllerOptions options;
  options.strategy = strategy;
  options.similarity.probe_k = config.probe_k;
  options.similarity.random_probe_records = config.random_probe_records;
  options.lag_seconds = config.lag_seconds;
  options.job = config.job;
  options.physical_record_bytes = config.physical_record_bytes;
  options.seed = hash_combine(config.seed, static_cast<int>(strategy));
  options.faults = config.faults;
  options.enforce_lag_deadline = config.enforce_lag_deadline;
  return options;
}

/// In-place vanilla Spark: no cubes, no movement, arrival-order
/// partitions, data-proportional reduce tasks. Returns per-site
/// intermediate bytes aggregated over the query mix (recurrence-weighted).
std::vector<double> vanilla_baseline(const ExperimentConfig& config,
                                     const SharedInputs& inputs,
                                     const net::WanTopology& topo) {
  std::vector<double> site_bytes(topo.site_count(), 0.0);
  Rng rng(hash_combine(config.seed, 0x5A1AD));
  std::vector<DatasetState> states = make_states(inputs, /*with_cubes=*/false);
  for (auto& d : states) {
    for (std::size_t t = 0; t < d.bundle().query_types.size(); ++t) {
      const std::size_t recurrences = d.mix().counts[t];
      if (recurrences == 0) continue;
      engine::QuerySpec spec =
          engine::default_spec_for(d.bundle().query_types[t].kind);
      const double rep_bytes =
          spec.intermediate_bytes_per_record *
          (d.bundle().bytes_per_row / config.physical_record_bytes);
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        const engine::RecordStream input =
            d.map_rows(i, t, spec.selectivity, d.query_salt(t));
        const auto partitions =
            engine::make_partitions(input, config.job.partition_records,
                                    engine::PartitionPolicy::ArrivalOrder);
        engine::MachineConfig machine = config.job.machine;
        machine.record_scale = std::max(
            1.0, d.bundle().bytes_per_row / config.physical_record_bytes);
        engine::LocalStageResult local = engine::run_local_stage(
            partitions, machine, engine::ExecutorAssignment::RoundRobin,
            spec.compute_multiplier, config.job.dimsum, rng);
        site_bytes[i] += static_cast<double>(local.shuffle_records) *
                         rep_bytes * static_cast<double>(recurrences);
      }
    }
  }
  return site_bytes;
}

}  // namespace

Controller make_controller(const ExperimentConfig& config, Strategy strategy) {
  const StrategyTraits traits = traits_of(strategy);
  return Controller(config.make_topology(),
                    make_states(make_inputs(config), traits.cubes),
                    make_controller_options(config, strategy));
}

const StrategyOutcome& WorkloadRun::outcome(Strategy s) const {
  for (const auto& o : outcomes) {
    if (o.strategy == s) return o;
  }
  throw ContractViolation("strategy not present in this run");
}

std::vector<double> WorkloadRun::data_reduction_percent(Strategy s) const {
  const StrategyOutcome& o = outcome(s);
  std::vector<double> out(vanilla_site_shuffle_bytes.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (vanilla_site_shuffle_bytes[i] <= 0.0) continue;
    out[i] = 100.0 *
             (1.0 - o.site_shuffle_bytes[i] / vanilla_site_shuffle_bytes[i]);
  }
  return out;
}

double WorkloadRun::mean_data_reduction_percent(Strategy s) const {
  return mean_of(data_reduction_percent(s));
}

WorkloadRun run_workload(const ExperimentConfig& config,
                         const std::vector<Strategy>& strategies) {
  BOHR_EXPECTS(!strategies.empty());
  WorkloadRun run;
  run.config = config;
  const net::WanTopology topo = config.make_topology();
  SharedInputs inputs = make_inputs(config);
  run.vanilla_site_shuffle_bytes = vanilla_baseline(config, inputs, topo);

  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const Strategy strategy = strategies[s];
    const StrategyTraits traits = traits_of(strategy);
    // Earlier strategies take a copy of the inputs and the last takes
    // them, so no second copy of the rows outlives the loop's last turn.
    Controller controller(
        topo,
        make_states(s + 1 == strategies.size() ? std::move(inputs) : inputs,
                    traits.cubes),
        make_controller_options(config, strategy));
    StrategyOutcome outcome;
    outcome.strategy = strategy;
    outcome.prep = controller.prepare();
    outcome.site_shuffle_bytes.assign(topo.site_count(), 0.0);

    std::map<engine::QueryKind, RunningStats> qct_kind;
    for (const QueryExecution& exec : controller.run_all_queries()) {
      for (std::size_t rep = 0; rep < exec.recurrences; ++rep) {
        outcome.qct.add(exec.result.qct_seconds);
        qct_kind[exec.kind].add(exec.result.qct_seconds);
      }
      for (std::size_t i = 0; i < topo.site_count(); ++i) {
        outcome.site_shuffle_bytes[i] +=
            exec.result.sites[i].shuffle_bytes *
            static_cast<double>(exec.recurrences);
      }
      outcome.wan_shuffle_bytes += exec.result.wan_shuffle_bytes *
                                   static_cast<double>(exec.recurrences);
      outcome.shuffle_retries +=
          exec.result.shuffle_retries * exec.recurrences;
      outcome.shuffle_flows_failed +=
          exec.result.shuffle_flows_failed * exec.recurrences;
    }
    outcome.avg_qct_seconds = outcome.qct.mean();
    for (const auto& [kind, stats] : qct_kind) {
      outcome.qct_by_kind[kind] = stats.mean();
    }
    run.outcomes.push_back(std::move(outcome));
  }
  return run;
}

std::vector<RepeatedOutcome> run_workload_repeated(
    const ExperimentConfig& config, const std::vector<Strategy>& strategies,
    std::size_t n_runs) {
  BOHR_EXPECTS(n_runs >= 1);
  // QCT pools the per-query samples of every run: averaging per-run
  // means would weight a 10-query run equally with a 1000-query one.
  std::vector<LatencyRecorder> qct(strategies.size());
  std::vector<RunningStats> reduction(strategies.size());
  for (std::size_t run_idx = 0; run_idx < n_runs; ++run_idx) {
    ExperimentConfig cfg = config;
    cfg.seed = hash_combine(config.seed, 0xF00D + run_idx);
    const WorkloadRun run = run_workload(cfg, strategies);
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      qct[s].merge(run.outcome(strategies[s]).qct);
      reduction[s].add(run.mean_data_reduction_percent(strategies[s]));
    }
  }
  std::vector<RepeatedOutcome> out;
  out.reserve(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    RepeatedOutcome o;
    o.strategy = strategies[s];
    o.mean_qct_seconds = qct[s].mean();
    o.stddev_qct_seconds = qct[s].stats().stddev();
    o.mean_reduction_percent = reduction[s].mean();
    o.stddev_reduction_percent = reduction[s].stddev();
    o.qct_summary = qct[s].summarize(0.0);
    o.total_queries = qct[s].count();
    out.push_back(std::move(o));
  }
  return out;
}

StorageReport compute_storage(const ExperimentConfig& config, Strategy s) {
  const StrategyTraits traits = traits_of(s);
  const net::WanTopology topo = config.make_topology();
  std::vector<DatasetState> states =
      make_states(make_inputs(config), traits.cubes);

  StorageReport report;
  const auto n = static_cast<double>(topo.site_count());
  double raw_bytes = 0.0;
  double cube_bytes = 0.0;
  double probe_bytes = 0.0;
  for (const auto& d : states) {
    raw_bytes += d.total_input_bytes();
    if (!traits.cubes) continue;
    for (std::size_t i = 0; i < d.site_count(); ++i) {
      const std::size_t rows = d.rows_at(i).size();
      if (rows == 0) continue;
      // Logical cube footprint: one encoded entry per distinct cell at
      // full record width (base cube + dimension cubes).
      const double per_row = d.bundle().bytes_per_row;
      const auto& cubes = d.cubes_at(i);
      const double cell_ratio_base =
          static_cast<double>(cubes.base_cube().cell_count()) /
          static_cast<double>(rows);
      double cell_ratio_dims = 0.0;
      for (std::size_t qt = 0; qt < cubes.query_type_count(); ++qt) {
        cell_ratio_dims +=
            static_cast<double>(cubes.dimension_cube(qt).cell_count()) /
            static_cast<double>(rows);
      }
      cube_bytes += static_cast<double>(rows) * per_row *
                    (0.30 * cell_ratio_base + 0.12 * cell_ratio_dims);
    }
    if (traits.similarity_movement) {
      // Similarity metadata: cluster index + probe cache, ~2% of raw
      // (matches the paper's 0.82GB on 40GB).
      probe_bytes += d.total_input_bytes() * 0.02;
    }
  }
  const double gb = 1e9;
  report.raw_gb_per_node = raw_bytes / n / gb;
  report.olap_cubes_gb = cube_bytes / n / gb;
  report.similarity_metadata_gb = probe_bytes / n / gb;
  // Iridium keeps raw data (plus ~6% shuffle spill); cube systems keep
  // raw + cubes (+ metadata).
  report.storage_per_node_gb =
      report.raw_gb_per_node * 1.058 + report.olap_cubes_gb +
      report.similarity_metadata_gb;
  if (!traits.cubes) {
    // Queries read the raw data (plus spill).
    report.needed_by_queries_gb = report.raw_gb_per_node * 1.038;
  } else {
    // Queries touch only cubes (+ metadata), inflated ~7% by the cost of
    // performing OLAP operations (§8.5).
    report.needed_by_queries_gb =
        (report.olap_cubes_gb + report.similarity_metadata_gb) * 1.065;
  }
  return report;
}

DynamicRunResult run_dynamic_experiment(const ExperimentConfig& config,
                                        std::size_t n_batches,
                                        double initial_fraction,
                                        std::size_t replan_every) {
  BOHR_EXPECTS(n_batches >= 1);
  BOHR_EXPECTS(replan_every >= 1);
  DynamicRunResult result;
  const net::WanTopology topo = config.make_topology();
  const SharedInputs inputs = make_inputs(config);
  const ControllerOptions options =
      make_controller_options(config, Strategy::Bohr);

  // ---- Normal setting: all data present from the start -----------------
  {
    Controller controller(topo, make_states(inputs, /*with_cubes=*/true),
                          options);
    RunningStats qct;
    for (const QueryExecution& exec : controller.run_all_queries()) {
      for (std::size_t rep = 0; rep < exec.recurrences; ++rep) {
        qct.add(exec.result.qct_seconds);
      }
    }
    result.normal_avg_qct = qct.mean();
  }

  // ---- Dynamic setting --------------------------------------------------
  // Initial fraction loaded; remaining data arrives in batches between
  // queries; every `replan_every` queries the controller re-runs its
  // set-up — similarity checking, the LP and movement — on the rows
  // present then (§8.6).
  std::vector<workload::DynamicFeed> feeds;
  std::vector<DatasetState> states;
  for (std::size_t a = 0; a < inputs.bundles.size(); ++a) {
    feeds.push_back(workload::split_dynamic(inputs.bundles[a],
                                            initial_fraction, n_batches));
    workload::DatasetBundle initial = inputs.bundles[a];
    initial.site_rows = std::move(feeds[a].initial);
    states.emplace_back(std::move(initial), inputs.mixes[a],
                        /*with_cubes=*/true);
  }
  Controller controller(topo, std::move(states), options);
  controller.prepare();
  result.replans = 1;

  // Bohr's pure query configuration draws nothing from this stream.
  Rng rng(options.seed);
  RunningStats qct;
  for (std::size_t b = 0; b < n_batches; ++b) {
    // A new batch arrives before the next query and is ingested at once.
    for (std::size_t a = 0; a < feeds.size(); ++a) {
      DatasetState& d = controller.mutable_dataset(a);
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        d.append_rows(i, feeds[a].batches[b][i]);
      }
    }
    // Next query: round-robin over datasets and their query types,
    // preferring a type with queries in the mix.
    const std::size_t a = b % feeds.size();
    const DatasetState& d = controller.datasets()[a];
    const std::size_t types = d.bundle().query_types.size();
    std::size_t t = b % types;
    for (std::size_t probe = 0; probe < types; ++probe) {
      if (d.mix().counts[t] > 0) break;
      t = (t + 1) % types;
    }
    qct.add(controller.run_single_query(a, t, nullptr, rng).qct_seconds);
    ++result.queries_run;

    if ((b + 1) % replan_every == 0) {
      controller.replan();
      ++result.replans;
    }
  }
  result.dynamic_avg_qct = qct.mean();
  return result;
}

// ---- churn benchmark ----------------------------------------------------

namespace {

// The churn image rides in the snapshot's migration.bin: round
// bookkeeping first, then the MigrationController's own image.
constexpr std::string_view kChurnMagic = "BCHN";
// v2: optional degradation section (DegradedReport + standalone health
// monitor image) appended after the migration image.
// v3: per-query LatencyRecorder image appended after round_qct_seconds
// (percentile reporting survives crash/recovery).
constexpr std::uint32_t kChurnVersion = 3;

std::string encode_churn_image(const ChurnRunResult& out,
                               double qct_weighted_sum,
                               const MigrationController* migctl,
                               bool degrade,
                               const net::SiteHealthMonitor* own_health) {
  ByteWriter w;
  w.raw(kChurnMagic);
  w.u64(kChurnVersion);
  w.u64(out.rounds_run);
  w.u64(out.queries_run);
  w.f64(qct_weighted_sum);
  w.u64(out.speculations);
  w.f64(out.max_reduce_slowdown);
  w.u64(out.round_qct_seconds.size());
  for (const double q : out.round_qct_seconds) w.f64(q);
  w.str<std::uint64_t>(out.qct.serialize());
  w.u64(migctl != nullptr ? 1 : 0);
  if (migctl != nullptr) w.str<std::uint64_t>(migctl->serialize());
  w.u64(degrade ? 1 : 0);
  if (degrade) {
    w.str<std::uint64_t>(out.degraded.serialize());
    w.u64(own_health != nullptr ? 1 : 0);
    if (own_health != nullptr) w.str<std::uint64_t>(own_health->serialize());
  }
  return w.take();
}

/// Inverse of encode_churn_image; restores `out` and (when present) the
/// controller. Returns the resumed qct sum. Throws ContractViolation on a
/// malformed image: the manifest CRC proves these are the bytes written,
/// not that they are well formed.
double decode_churn_image(std::string_view image, ChurnRunResult& out,
                          std::optional<MigrationController>& migctl,
                          bool degrade,
                          std::optional<net::SiteHealthMonitor>& own_health) {
  ByteReader<ContractViolation> r(image, "churn image");
  r.magic(kChurnMagic);
  if (r.u64() != kChurnVersion) r.fail("unsupported version");
  out.rounds_run = r.u64();
  out.queries_run = r.u64();
  const double qct_weighted_sum = r.f64();
  out.speculations = r.u64();
  out.max_reduce_slowdown = r.f64();
  out.round_qct_seconds.resize(r.count<std::uint64_t>(sizeof(double)));
  for (double& q : out.round_qct_seconds) q = r.f64();
  out.qct = LatencyRecorder::deserialize(r.bytes(r.u64()));
  if ((r.u64() != 0) != migctl.has_value()) {
    r.fail("migration controller presence mismatch");
  }
  if (migctl) migctl->restore(r.bytes(r.u64()));
  if ((r.u64() != 0) != degrade) r.fail("degradation presence mismatch");
  if (degrade) {
    out.degraded = DegradedReport::deserialize(r.bytes(r.u64()));
    if ((r.u64() != 0) != own_health.has_value()) {
      r.fail("health monitor presence mismatch");
    }
    if (own_health) own_health->restore(r.bytes(r.u64()));
  }
  r.expect_end();
  return qct_weighted_sum;
}

}  // namespace

ChurnRunResult run_churn_experiment(const ExperimentConfig& config,
                                    const ChurnOptions& churn) {
  BOHR_EXPECTS(churn.rounds > 0);
  BOHR_EXPECTS(churn.crash_after_round == 0 || !churn.checkpoint_dir.empty());
  BOHR_EXPECTS(!churn.recover || !churn.checkpoint_dir.empty());

  ChurnRunResult out;
  Controller controller = make_controller(config, Strategy::Bohr);
  const double spacing =
      churn.round_seconds > 0.0 ? churn.round_seconds : config.lag_seconds;

  std::optional<CheckpointManager> ckpt;
  if (!churn.checkpoint_dir.empty()) ckpt.emplace(churn.checkpoint_dir);

  // Kept at completed_steps == kPrepareStepCount for mid-churn snapshots
  // (the snapshot captures the controller's LIVE rng and rows, so each
  // round's snapshot differs only where the run state differs).
  PrepareProgress snapshot_progress;
  const PrepareReport* prep = nullptr;
  std::optional<MigrationController> migctl;
  std::size_t start_round = 0;
  double qct_weighted_sum = 0.0;
  std::optional<std::string> recovered_image;

  const auto run_steps = [&](PrepareProgress& progress) {
    while (progress.completed_steps < Controller::kPrepareStepCount) {
      controller.run_next_step(progress);
    }
  };

  bool prepared = false;
  if (churn.recover) {
    RecoveryManager rm(churn.checkpoint_dir);
    RecoveryResult rec = rm.recover(controller);
    if (rec.recovered) {
      out.recovered = true;
      run_steps(rec.progress);  // no-op for mid-churn snapshots
      snapshot_progress = rec.progress;
      prep = &controller.finish_prepare(std::move(rec.progress));
      recovered_image = std::move(rec.migration_image);
      prepared = true;
    }
  }
  if (!prepared) {
    PrepareProgress progress = controller.start_prepare();
    run_steps(progress);
    snapshot_progress = progress;
    prep = &controller.finish_prepare(std::move(progress));
  }

  if (churn.migration) {
    migctl.emplace(controller.topology(), prep->decision.reduce_fractions,
                   churn.migration_options);
  }
  // Degradation ladder: built on the prepared controller's cubes and
  // probe similarities. With migration off, a standalone health monitor
  // supplies the usable-site mask the migration controller would have.
  std::optional<DegradationService> degrade_service;
  std::optional<net::SiteHealthMonitor> own_health;
  if (churn.degrade) {
    degrade_service.emplace(controller.datasets(), controller.similarity(),
                            churn.degrade_options);
    if (!churn.migration) {
      own_health.emplace(controller.topology().site_count(),
                         churn.migration_options.health);
    }
  }
  if (recovered_image) {
    qct_weighted_sum = decode_churn_image(*recovered_image, out, migctl,
                                          churn.degrade, own_health);
    start_round = out.rounds_run;
  }
  // Migration-off control: the SAME quantization, frozen — migration is
  // the only difference between the two modes.
  const engine::ReduceBucketMap frozen = engine::ReduceBucketMap::from_fractions(
      prep->decision.reduce_fractions, churn.migration_options.buckets);

  // Health probes observe the run-clock plan at absolute time; each
  // round's query execution sees the query-phase events re-based onto
  // its own phase-local clock.
  const net::FaultPlan query_template =
      config.faults.restricted_to(net::kPhaseQuery);

  for (std::size_t r = start_round; r < churn.rounds; ++r) {
    const double now =
        config.lag_seconds + spacing * static_cast<double>(r);
    if (migctl) migctl->step(config.faults, now);

    if (own_health) own_health->observe(config.faults, now);

    const net::FaultPlan round_plan = query_template.shifted_by(now);
    Controller::QueryRound qr;
    qr.faults = &round_plan;
    qr.reduce_buckets = migctl ? &migctl->buckets() : &frozen;
    qr.bucket_speculation = churn.bucket_speculation;
    qr.bucket_speculation_cap = churn.bucket_speculation_cap;

    std::vector<bool> site_ok;
    if (degrade_service) {
      // A site's data is unreachable this round if the health monitor
      // rules it out or the round's (phase-local) plan darkens it
      // anywhere inside the query's deadline horizon.
      const net::SiteHealthMonitor* monitor =
          migctl ? &migctl->health() : &*own_health;
      const std::size_t n = controller.topology().site_count();
      const double horizon = churn.degrade_options.deadline.total_seconds;
      site_ok.assign(n, true);
      for (std::size_t s = 0; s < n; ++s) {
        bool ok = monitor->usable(s);
        if (ok) {
          for (const net::OutageWindow& o : round_plan.outages) {
            if (o.site == s && o.start < horizon && o.end > 0.0) {
              ok = false;
              break;
            }
          }
        }
        site_ok[s] = ok;
      }
      qr.degrade = &*degrade_service;
      qr.site_usable = &site_ok;
      qr.round_index = r;
    }

    double sum = 0.0;
    std::size_t count = 0;
    for (const QueryExecution& exec : controller.run_query_round(qr)) {
      const auto reps = static_cast<double>(exec.recurrences);
      sum += exec.result.qct_seconds * reps;
      count += exec.recurrences;
      for (std::size_t rep = 0; rep < exec.recurrences; ++rep) {
        out.qct.add(exec.result.qct_seconds);
      }
      out.speculations += exec.result.reduce_speculations;
      out.max_reduce_slowdown =
          std::max(out.max_reduce_slowdown, exec.result.max_reduce_slowdown);
      if (exec.degraded) out.degraded.add(*exec.degraded);
    }
    qct_weighted_sum += sum;
    out.queries_run += count;
    out.round_qct_seconds.push_back(
        count > 0 ? sum / static_cast<double>(count) : 0.0);
    out.rounds_run = r + 1;

    if (ckpt) {
      const std::string image = encode_churn_image(
          out, qct_weighted_sum, migctl ? &*migctl : nullptr,
          churn.degrade, own_health ? &*own_health : nullptr);
      ckpt->snapshot(controller, snapshot_progress, &image);
      ++out.snapshots_written;
    }
    if (churn.crash_after_round > 0 && r + 1 == churn.crash_after_round &&
        r + 1 < churn.rounds) {
      out.crashed = true;
      break;
    }
  }

  out.avg_qct_seconds =
      out.queries_run > 0
          ? qct_weighted_sum / static_cast<double>(out.queries_run)
          : 0.0;
  if (migctl) {
    out.migrations = migctl->total_moves();
    out.evacuations = migctl->total_evacuations();
    out.migration_log = migctl->log();
    out.migration_log_crc32 = migctl->log_digest();
  }
  return out;
}

}  // namespace bohr::core
