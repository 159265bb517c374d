// Durability overhead and recovery fidelity (ISSUE 4): what snapshots
// cost during prepare, how long recovery takes after a mid-movement
// crash, and that the recovered run's prepare report and QCTs match the
// fresh run. The checkpoint.snapshot / checkpoint.recover phase totals
// also travel in the BENCH_JSON epilogue.
#include <unistd.h>

#include <filesystem>
#include <string>

#include "bench_common.h"
#include "common/timer.h"
#include "core/checkpoint.h"

namespace {

using namespace bohr;
using namespace bohr::bench;

struct Row {
  double snapshot_write_s;
  std::size_t snapshots;
  std::size_t files;
  double recovery_s;
  double fresh_qct_s;
  double recovered_qct_s;
  bool report_identical;
};
Row g_row;

double avg_qct(core::Controller& controller) {
  double total = 0.0;
  std::size_t queries = 0;
  for (const core::QueryExecution& exec : controller.run_all_queries()) {
    total += exec.result.qct_seconds * static_cast<double>(exec.recurrences);
    queries += exec.recurrences;
  }
  return queries > 0 ? total / static_cast<double>(queries) : 0.0;
}

void BM_Recovery(benchmark::State& state) {
  const auto cfg = bench_config(workload::WorkloadKind::BigData);
  // One directory per process, so runs side by side never share one.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bohr_bench_recovery-" + std::to_string(::getpid()));
  for (auto _ : state) {
    std::filesystem::remove_all(dir);

    // Fresh run: prepare with snapshots after every phase, then queries.
    core::Controller fresh = core::make_controller(cfg, core::Strategy::Bohr);
    core::CheckpointManager fresh_ck(dir.string());
    WallTimer snapshot_timer;
    const std::string fresh_image = core::serialize_prepare_report(
        core::checkpointed_prepare(fresh, fresh_ck));
    const double prepare_with_snapshots_s = snapshot_timer.elapsed_seconds();
    g_row.snapshots = fresh_ck.snapshots_written();
    g_row.files = fresh_ck.files_written();
    g_row.fresh_qct_s = avg_qct(fresh);

    // Snapshot cost alone: the same prepare without checkpointing.
    core::Controller plain = core::make_controller(cfg, core::Strategy::Bohr);
    WallTimer plain_timer;
    plain.prepare();
    g_row.snapshot_write_s =
        prepare_with_snapshots_s - plain_timer.elapsed_seconds();

    // Crash mid-movement (after the plan, before execution), recover in
    // a "new process", resume, and run the same queries.
    std::filesystem::remove_all(dir);
    {
      auto crash_cfg = cfg;
      crash_cfg.faults.crash_after_phase = "movement_plan";
      core::Controller crashing =
          core::make_controller(crash_cfg, core::Strategy::Bohr);
      core::CheckpointManager ck(dir.string(), 2,
                                 &crashing.options().faults);
      try {
        core::checkpointed_prepare(crashing, ck);
      } catch (const core::CrashInjected&) {
      }
    }
    core::Controller restored =
        core::make_controller(cfg, core::Strategy::Bohr);
    WallTimer recovery_timer;
    core::RecoveryManager recovery(dir.string());
    core::RecoveryResult found = recovery.recover(restored);
    g_row.recovery_s = recovery_timer.elapsed_seconds();
    core::CheckpointManager resume_ck(dir.string());
    const std::string recovered_image =
        core::serialize_prepare_report(core::resume_prepare(
            restored, std::move(found.progress), resume_ck));
    g_row.report_identical =
        found.recovered && recovered_image == fresh_image;
    g_row.recovered_qct_s = avg_qct(restored);
  }
  std::filesystem::remove_all(dir);
  state.counters["snapshot_write_s"] = g_row.snapshot_write_s;
  state.counters["recovery_s"] = g_row.recovery_s;
}
BENCHMARK(BM_Recovery)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, [] {
    ResultTable table({"snapshot write (s)", "snapshots", "files",
                       "recovery (s)", "fresh QCT (s)", "recovered QCT (s)",
                       "QCT delta (s)", "report identical?"});
    table.add_row({TablePrinter::num(g_row.snapshot_write_s, 3),
                   std::to_string(g_row.snapshots),
                   std::to_string(g_row.files),
                   TablePrinter::num(g_row.recovery_s, 3),
                   TablePrinter::num(g_row.fresh_qct_s, 3),
                   TablePrinter::num(g_row.recovered_qct_s, 3),
                   TablePrinter::num(
                       g_row.recovered_qct_s - g_row.fresh_qct_s, 6),
                   g_row.report_identical ? "yes" : "NO"});
    table.print("Durability: snapshot cost and crash recovery (ISSUE 4)");
  });
}
