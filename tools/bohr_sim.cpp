// bohr_sim — command-line driver for the Bohr experiment harness.
//
// Examples:
//   bohr_sim --workload=bigdata --datasets=12 --schemes=iridium-c,bohr
//   bohr_sim --workload=tpcds --placement=locality --runs=5 --csv
//   bohr_sim --workload=facebook --probe-k=100 --lag=30 --seed=7
//   bohr_sim --faults='outage:site=6,start=0,end=15;probe-loss:p=0.3'
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/crc32.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "net/faults.h"
#include "serve/server.h"

namespace {

using namespace bohr;

constexpr const char* kUsage = R"(usage: bohr_sim [flags]

Flags (defaults in brackets):
  --workload    bigdata | tpcds | facebook            [bigdata]
  --schemes     comma list of centralized,iridium,iridium-c,bohr-sim,
                bohr-joint,bohr-rdd,bohr              [iridium,iridium-c,bohr]
  --datasets    dataset count (> 0)                   [12]
  --rows        rows per site per dataset (> 0)       [480]
  --gb-per-site total GB per site across datasets     [40]
  --bandwidth   base-tier uplink, MB/s (> 0)          [125]
  --lag         seconds between recurring queries     [60]
  --probe-k     probe records per dataset (> 0)       [30]
  --placement   random | locality                     [random]
  --executors   executors per machine (> 0)           [4]
  --seed        experiment seed                       [20181204]
  --threads     worker threads; results are identical
                for every value (1 = serial path)     [hardware/BOHR_THREADS]
  --runs        repeated runs (mean +/- std output)   [1]
  --csv         emit CSV instead of an aligned table
  --enforce-lag truncate movement at the lag deadline
  --faults      ';'-joined fault clauses, e.g.
                outage:site=S,start=A,end=B[,phases=probe+move+query]
                degrade:site=S,start=A,end=B,factor=F[,link=up|down|both]
                slow-site:site=S,start=A,end=B[,factor=F][,phases=P]
                kill:time=T[,src=S][,dst=S]
                probe-loss:p=F[,seed=N]
                retry:max=N,base=S[,cap=S][,mode=resume|restart]
                lp-failure
                crash:phase=NAME (similarity|placement|movement_plan|movement)
                torn-write:file=N[,fraction=F]
                bit-flip:file=N[,bit=B]

Checkpointing (prepare-only mode; requires one scheme and --runs=1):
  --checkpoint-dir       snapshot prepare() after every phase into DIR
  --crash-after-phase    shorthand for --faults='crash:phase=NAME';
                         exits with status 3 after that phase's snapshot
  --recover              restore the newest intact snapshot from
                         --checkpoint-dir and resume the remaining phases

Churn mode (site churn under the elastic migration controller):
  --churn=N              run the Bohr query mix for N rounds on a run
                         clock while --faults kills/slows sites; fault
                         windows use run-clock times (round r executes
                         at lag + r * lag)
  --migration=on|off     relocate reduce buckets away from sick sites
                         between rounds (on), or freeze the initial
                         bucket placement (off)             [on]
  --checkpoint-dir       with --churn: also snapshot after every round;
                         combine with --recover to resume a crashed run
  --crash-after-round=N  stop (exit 3) after N rounds' snapshots commit

Degraded mode (similarity-backed graceful degradation):
  --degrade              never fail a query: each one runs under a
                         deadline budget (bounded retries, partial
                         reduce close-out), and a query whose home
                         sites are dead or dark is answered from the
                         most similar surviving cube with an explicit
                         error estimate. Prints one line per query
                         (mode, value, error estimate) plus a summary
                         with the DegradedReport digest. Implies
                         --churn=1 when --churn is absent
  --degrade-budget=SEC   per-query QCT budget in modeled seconds  [60]

Serving mode (online multi-tenant stream; see DESIGN.md sec. 16):
  --serve                run one prepared scheme as a long-lived server
                         admitting a Poisson/Zipf/heavy-tail query
                         stream; reports p50/p95/p99/max QCT, the
                         offered-window throughput, per-tenant tails,
                         and the canonical latency digest (two runs
                         with the same seed produce byte-identical
                         digests at ANY --threads). Requires exactly
                         one scheme and --runs=1; conflicts with
                         --churn, --degrade, --recover,
                         --checkpoint-dir and --crash-after-phase
  --tenants=N            concurrent tenants (> 0)             [4]
  --arrival-rate=QPS     per-tenant mean arrival rate (> 0)   [2]
  --duration=SEC         admission window length (> 0)        [60]
  --batch-size=N         admission batch closes at N queries  [8]
  --batch-delay=SEC      ... or after SEC since it opened     [0.25]
  --slots=N              concurrent batch-execution slots     [4]
  --migration-period=SEC elastic-migration cadence on the run
                         clock; 0 disables the controller     [30]

Exit codes: 0 = success; 1 = runtime error; 2 = usage error (this
text); 3 = injected crash (--crash-after-phase, --crash-after-round).
)";

/// Flag/spec validation error: print usage, exit 2 (vs runtime errors,
/// which exit 1 without the usage wall). Flags throws the same type for a
/// malformed argument or value.
using UsageError = FlagError;

workload::WorkloadKind parse_workload(const std::string& name) {
  if (name == "bigdata") return workload::WorkloadKind::BigData;
  if (name == "tpcds") return workload::WorkloadKind::TpcDs;
  if (name == "facebook") return workload::WorkloadKind::Facebook;
  throw UsageError("unknown --workload=" + name);
}

core::Strategy parse_strategy(const std::string& name) {
  if (name == "centralized") return core::Strategy::Centralized;
  if (name == "geode") return core::Strategy::Geode;
  if (name == "iridium") return core::Strategy::Iridium;
  if (name == "iridium-c") return core::Strategy::IridiumC;
  if (name == "bohr-sim") return core::Strategy::BohrSim;
  if (name == "bohr-joint") return core::Strategy::BohrJoint;
  if (name == "bohr-rdd") return core::Strategy::BohrRdd;
  if (name == "bohr") return core::Strategy::Bohr;
  throw UsageError("unknown scheme '" + name + "'");
}

std::vector<core::Strategy> parse_schemes(const std::string& list) {
  std::vector<core::Strategy> out;
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(parse_strategy(item));
  }
  if (out.empty()) throw UsageError("--schemes resolved to nothing");
  return out;
}

void require(bool ok, const std::string& message) {
  if (!ok) throw UsageError(message);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);

    core::ExperimentConfig cfg;
    cfg.workload = parse_workload(flags.get("workload", "bigdata"));
    const std::int64_t datasets = flags.get_int("datasets", 12);
    require(datasets > 0, "--datasets must be positive");
    cfg.n_datasets = static_cast<std::size_t>(datasets);
    cfg.generator.sites = 10;
    const std::int64_t rows = flags.get_int("rows", 480);
    require(rows > 0, "--rows must be positive");
    cfg.generator.rows_per_site = static_cast<std::size_t>(rows);
    const double gb_per_site = flags.get_double("gb-per-site", 40.0);
    require(gb_per_site > 0.0, "--gb-per-site must be positive");
    cfg.generator.gb_per_site =
        gb_per_site / static_cast<double>(cfg.n_datasets);
    const std::string placement = flags.get("placement", "random");
    require(placement == "random" || placement == "locality",
            "--placement must be random|locality");
    cfg.generator.placement = placement == "locality"
                                  ? workload::InitialPlacement::LocalityAware
                                  : workload::InitialPlacement::Random;
    const double bandwidth = flags.get_double("bandwidth", 125.0);
    require(bandwidth > 0.0, "--bandwidth must be positive");
    cfg.base_bandwidth = bandwidth * 1e6;
    cfg.lag_seconds = flags.get_double("lag", 60.0);
    require(cfg.lag_seconds > 0.0, "--lag must be positive");
    const std::int64_t probe_k = flags.get_int("probe-k", 30);
    require(probe_k > 0, "--probe-k must be positive");
    cfg.probe_k = static_cast<std::size_t>(probe_k);
    const std::int64_t executors = flags.get_int("executors", 4);
    require(executors > 0, "--executors must be positive");
    cfg.job.machine.executors = static_cast<std::size_t>(executors);
    cfg.job.partition_records = 24;
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 20181204));
    cfg.enforce_lag_deadline = flags.get_bool("enforce-lag", false);
    const std::int64_t threads = flags.get_int(
        "threads", static_cast<std::int64_t>(thread_count()));
    require(threads > 0 && threads <= static_cast<std::int64_t>(kMaxThreads),
            "--threads must be in [1, " + std::to_string(kMaxThreads) + "]");
    set_thread_count(static_cast<std::size_t>(threads));

    const std::string fault_spec = flags.get("faults", "");
    if (!fault_spec.empty()) {
      try {
        cfg.faults = net::parse_fault_plan(fault_spec);
      } catch (const std::exception& e) {
        throw UsageError(std::string("--faults: ") + e.what());
      }
    }

    const auto schemes =
        parse_schemes(flags.get("schemes", "iridium,iridium-c,bohr"));
    const std::int64_t runs = flags.get_int("runs", 1);
    require(runs >= 1, "--runs must be at least 1");
    const bool csv = flags.get_bool("csv", false);

    const std::string checkpoint_dir = flags.get("checkpoint-dir", "");
    const std::string crash_phase = flags.get("crash-after-phase", "");
    const bool recover = flags.get_bool("recover", false);
    std::int64_t churn_rounds = flags.get_int("churn", 0);
    require(churn_rounds >= 0, "--churn must be non-negative");
    const bool degrade = flags.get_bool("degrade", false);
    const double degrade_budget = flags.get_double("degrade-budget", 60.0);
    require(degrade_budget > 0.0, "--degrade-budget must be positive");
    if (degrade && churn_rounds == 0) churn_rounds = 1;
    const std::string migration = flags.get("migration", "on");
    require(migration == "on" || migration == "off",
            "--migration must be on|off");
    const std::int64_t crash_round = flags.get_int("crash-after-round", 0);
    require(crash_round >= 0, "--crash-after-round must be non-negative");
    require(crash_round == 0 || churn_rounds > 0,
            "--crash-after-round requires --churn");
    require(crash_round == 0 || !checkpoint_dir.empty(),
            "--crash-after-round requires --checkpoint-dir");
    require(crash_phase.empty() || !checkpoint_dir.empty(),
            "--crash-after-phase requires --checkpoint-dir");
    require(!recover || !checkpoint_dir.empty(),
            "--recover requires --checkpoint-dir");
    if (!crash_phase.empty()) {
      const auto& names = core::prepare_phase_names();
      require(std::find(names.begin(), names.end(), crash_phase) !=
                  names.end(),
              "unknown --crash-after-phase=" + crash_phase);
      require(cfg.faults.crash_after_phase.empty(),
              "--crash-after-phase conflicts with a crash: fault clause");
      cfg.faults.crash_after_phase = crash_phase;
    }

    // Serving-mode flags validate up front: a bad rate must exit 2 with
    // usage before any expensive prepare work starts.
    const bool serve = flags.get_bool("serve", false);
    serve::ServeOptions serve_opts;
    {
      const std::int64_t tenants = flags.get_int("tenants", 4);
      require(!serve || tenants > 0, "--tenants must be positive");
      serve_opts.arrivals.tenants = static_cast<std::size_t>(
          std::max<std::int64_t>(tenants, 1));
      serve_opts.arrivals.arrival_rate_qps =
          flags.get_double("arrival-rate", 2.0);
      require(!serve || serve_opts.arrivals.arrival_rate_qps > 0.0,
              "--arrival-rate must be positive");
      serve_opts.arrivals.duration_seconds = flags.get_double("duration", 60.0);
      require(!serve || serve_opts.arrivals.duration_seconds > 0.0,
              "--duration must be positive");
      require(!serve || serve_opts.arrivals.expected_arrivals() <=
                            serve::kMaxExpectedArrivals,
              "--tenants x --arrival-rate x --duration must be at most "
              "1e6 expected arrivals");
      const std::int64_t batch_size = flags.get_int("batch-size", 8);
      require(!serve || batch_size > 0, "--batch-size must be positive");
      serve_opts.batching.max_batch = static_cast<std::size_t>(
          std::max<std::int64_t>(batch_size, 1));
      serve_opts.batching.max_delay_seconds =
          flags.get_double("batch-delay", 0.25);
      require(!serve || serve_opts.batching.max_delay_seconds >= 0.0,
              "--batch-delay must be non-negative");
      const std::int64_t slots = flags.get_int("slots", 4);
      require(!serve || slots > 0, "--slots must be positive");
      serve_opts.slots =
          static_cast<std::size_t>(std::max<std::int64_t>(slots, 1));
      serve_opts.migration_period_seconds =
          flags.get_double("migration-period", 30.0);
      require(!serve || serve_opts.migration_period_seconds >= 0.0,
              "--migration-period must be non-negative");
      serve_opts.arrivals.seed = cfg.seed;
      serve_opts.faults = cfg.faults;
    }
    require(!serve || churn_rounds == 0, "--serve conflicts with --churn");
    require(!serve || !degrade, "--serve conflicts with --degrade");
    require(!serve || crash_phase.empty(),
            "--serve conflicts with --crash-after-phase");
    require(!serve || crash_round == 0,
            "--serve conflicts with --crash-after-round");
    require(!serve || !recover, "--serve conflicts with --recover");
    require(!serve || checkpoint_dir.empty(),
            "--serve conflicts with --checkpoint-dir");
    require(!serve || runs == 1, "--serve requires --runs=1");
    require(!serve || schemes.size() == 1,
            "--serve requires exactly one scheme");

    for (const auto& unknown : flags.unused()) {
      throw UsageError("unknown flag --" + unknown);
    }

    if (serve) {
      core::Controller controller = core::make_controller(cfg, schemes[0]);
      controller.prepare();
      const serve::ServeReport report =
          serve::run_serving(controller, serve_opts);
      std::printf(
          "serve: scheme=%s tenants=%zu rate=%.3f duration=%.1f "
          "batch_size=%zu batch_delay=%.3f slots=%zu queries=%zu "
          "batches=%zu\n",
          core::to_string(schemes[0]).c_str(), serve_opts.arrivals.tenants,
          serve_opts.arrivals.arrival_rate_qps,
          serve_opts.arrivals.duration_seconds, serve_opts.batching.max_batch,
          serve_opts.batching.max_delay_seconds, serve_opts.slots,
          report.queries, report.batches);
      std::printf(
          "serve: qct_mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f "
          "throughput_qps=%.4f makespan=%.3f digest=%08x\n",
          report.summary.mean_seconds, report.summary.p50_seconds,
          report.summary.p95_seconds, report.summary.p99_seconds,
          report.summary.max_seconds, report.summary.throughput_qps,
          report.makespan_seconds, report.qct.digest());
      std::printf("serve: epochs=%zu migrations=%zu evacuations=%zu\n",
                  report.migration_epochs, report.migrations,
                  report.evacuations);
      for (std::size_t t = 0; t < report.tenant_summary.size(); ++t) {
        const LatencySummary& s = report.tenant_summary[t];
        std::printf(
            "serve: tenant=%zu queries=%zu mean=%.6f p50=%.6f p95=%.6f "
            "p99=%.6f\n",
            t, s.count, s.mean_seconds, s.p50_seconds, s.p95_seconds,
            s.p99_seconds);
      }
      return 0;
    }

    if (churn_rounds > 0) {
      require(runs == 1, "--churn requires --runs=1");
      require(crash_phase.empty(),
              "--churn conflicts with --crash-after-phase");
      core::ChurnOptions churn;
      churn.rounds = static_cast<std::size_t>(churn_rounds);
      churn.migration = migration == "on";
      churn.checkpoint_dir = checkpoint_dir;
      churn.crash_after_round = static_cast<std::size_t>(crash_round);
      churn.recover = recover;
      churn.degrade = degrade;
      churn.degrade_options.deadline.total_seconds = degrade_budget;
      const core::ChurnRunResult result =
          core::run_churn_experiment(cfg, churn);
      if (result.recovered) {
        std::printf("churn: recovered from checkpoint\n");
      }
      const LatencySummary qs = result.qct.summarize(0.0);
      std::printf(
          "churn: rounds=%zu queries=%zu qct_mean=%.6f qct_p50=%.6f "
          "qct_p95=%.6f qct_p99=%.6f qct_max=%.6f qct_digest=%08x "
          "migrations=%zu evacuations=%zu speculations=%zu "
          "max_slowdown=%.3f snapshots=%zu log_crc32=%08x\n",
          result.rounds_run, result.queries_run, result.avg_qct_seconds,
          qs.p50_seconds, qs.p95_seconds, qs.p99_seconds, qs.max_seconds,
          result.qct.digest(), result.migrations, result.evacuations,
          result.speculations, result.max_reduce_slowdown,
          result.snapshots_written, result.migration_log_crc32);
      if (degrade) {
        for (const core::DegradedAnswer& a : result.degraded.answers) {
          std::printf(
              "degraded: round=%llu dataset=%u spec=%u mode=%s "
              "value=%.6g exact=%.6g err_est=%.4f coverage=%.4f "
              "sim=%.4f sub=%d parts=%u/%u/%u retries=%u qct=%.3f\n",
              static_cast<unsigned long long>(a.round), a.dataset, a.spec,
              core::to_string(a.mode), a.value, a.exact_value,
              a.error_estimate, a.coverage, a.similarity,
              a.substitute_dataset == core::DegradedAnswer::kNoSubstitute
                  ? -1
                  : static_cast<int>(a.substitute_dataset),
              a.partitions_exact, a.partitions_substituted,
              a.partitions_dropped, a.retries, a.qct_seconds);
        }
        const core::DegradedReport& rep = result.degraded;
        std::printf(
            "degrade: queries=%llu exact=%llu partial=%llu "
            "substituted=%llu prior=%llu escalations=%llu retries=%llu "
            "report_crc32=%08x\n",
            static_cast<unsigned long long>(rep.queries_total),
            static_cast<unsigned long long>(rep.exact),
            static_cast<unsigned long long>(rep.partial),
            static_cast<unsigned long long>(rep.substituted),
            static_cast<unsigned long long>(rep.prior),
            static_cast<unsigned long long>(rep.escalations),
            static_cast<unsigned long long>(rep.retries), rep.digest());
      }
      if (result.crashed) {
        std::fprintf(stderr, "bohr_sim: injected crash after round %zu\n",
                     result.rounds_run);
        std::fflush(nullptr);
        std::_Exit(3);
      }
      return 0;
    }

    if (!checkpoint_dir.empty()) {
      require(schemes.size() == 1,
              "--checkpoint-dir requires exactly one scheme");
      require(runs == 1, "--checkpoint-dir requires --runs=1");
      core::Controller controller = core::make_controller(cfg, schemes[0]);
      core::CheckpointManager checkpoints(checkpoint_dir, /*keep_snapshots=*/2,
                                          &controller.options().faults);
      const core::PrepareReport* report = nullptr;
      try {
        if (recover) {
          core::RecoveryManager recovery(checkpoint_dir);
          core::RecoveryResult found = recovery.recover(controller);
          if (found.recovered) {
            std::printf(
                "checkpoint: recovered snapshot %zu (%zu rejected), "
                "resuming after step %zu/%zu\n",
                found.snapshot_seq, found.snapshots_rejected,
                found.progress.completed_steps,
                core::Controller::kPrepareStepCount);
            report = &core::resume_prepare(
                controller, std::move(found.progress), checkpoints);
          } else {
            std::printf(
                "checkpoint: no intact snapshot (%zu rejected), preparing "
                "from scratch\n",
                found.snapshots_rejected);
            report = &core::checkpointed_prepare(controller, checkpoints);
          }
        } else {
          report = &core::checkpointed_prepare(controller, checkpoints);
        }
      } catch (const core::CrashInjected& e) {
        std::fprintf(stderr, "bohr_sim: %s\n", e.what());
        std::fflush(nullptr);
        std::_Exit(3);  // simulated crash: no destructors, like a real kill
      }
      const std::string image = core::serialize_prepare_report(*report);
      std::printf(
          "prepare-report crc32=%08x bytes=%zu bytes_moved=%.0f "
          "rows_moved=%zu snapshots=%zu\n",
          crc32(image), image.size(), report->bytes_moved,
          report->rows_moved, checkpoints.snapshots_written());
      return 0;
    }

    TablePrinter table({"scheme", "QCT mean (s)", "QCT std", "reduction mean (%)",
                        "reduction std"});
    for (const auto& outcome : core::run_workload_repeated(
             cfg, schemes, static_cast<std::size_t>(runs))) {
      table.add_row({core::to_string(outcome.strategy),
                     TablePrinter::num(outcome.mean_qct_seconds, 3),
                     TablePrinter::num(outcome.stddev_qct_seconds, 3),
                     TablePrinter::num(outcome.mean_reduction_percent, 2),
                     TablePrinter::num(outcome.stddev_reduction_percent, 2)});
    }
    std::printf("%s", csv ? table.to_csv().c_str()
                          : table.to_string().c_str());
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
