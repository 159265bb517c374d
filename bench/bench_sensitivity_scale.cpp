// Sensitivity: how QCT, data reduction, and LP solve time scale with the
// number of datasets sharing the placement (the paper runs 300; the
// bench default is 12 — this sweep shows nothing qualitative changes in
// between and that the LP stays cheap), plus a site-count axis at fixed
// total data exercising the revised simplex on LPs of hundreds of sites.
#include "bench_common.h"
#include "site_scale_problem.h"

#include "core/placement.h"

namespace {

using namespace bohr;
using namespace bohr::bench;

struct Row {
  std::size_t datasets;
  double iridium_c_qct;
  double bohr_qct;
  double bohr_reduction;
  double lp_seconds;
};
std::vector<Row> g_rows;

void BM_Scale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto cfg = bench_config(workload::WorkloadKind::BigData);
  cfg.n_datasets = n;
  cfg.generator.gb_per_site = 40.0 / static_cast<double>(n);
  Row row{n, 0, 0, 0, 0};
  for (auto _ : state) {
    const auto run = core::run_workload(
        cfg, {core::Strategy::IridiumC, core::Strategy::Bohr});
    row.iridium_c_qct = run.outcome(core::Strategy::IridiumC).avg_qct_seconds;
    row.bohr_qct = run.outcome(core::Strategy::Bohr).avg_qct_seconds;
    row.bohr_reduction = run.mean_data_reduction_percent(core::Strategy::Bohr);
    row.lp_seconds =
        run.outcome(core::Strategy::Bohr).prep.decision.lp_seconds;
  }
  state.counters["lp_s"] = row.lp_seconds;
  g_rows.push_back(row);
}
BENCHMARK(BM_Scale)
    ->Unit(benchmark::kSecond)
    ->Iterations(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(18)
    ->Arg(24);

// ---- site-count axis ---------------------------------------------------
// Fixed total data (120 GB across 12 datasets) spread over a growing WAN:
// the movement LP has O(A * n^2) columns, so this axis is what separates
// the dense tableau (O(rows * cols) memory, unusable past ~32 sites) from
// the revised engine (O(nonzeros)). Solves the placement LP directly —
// no simulator — so the row measures the solver, nothing else.

struct SiteRow {
  std::size_t sites;
  double lp_seconds;
  std::size_t lp_iterations;
  std::size_t lp_peak_bytes;
};
std::vector<SiteRow> g_site_rows;

void BM_SiteScale(benchmark::State& state) {
  const auto n_sites = static_cast<std::size_t>(state.range(0));
  const auto problem = site_scale_problem(n_sites);
  core::JointLpOptions options;
  options.max_rounds = 2;
  core::PlacementDecision decision;
  for (auto _ : state) {
    decision = core::joint_lp_placement(problem, options);
    benchmark::DoNotOptimize(decision.predicted_shuffle_seconds);
  }
  state.counters["lp_s"] = decision.lp_seconds;
  state.counters["peak_MB"] =
      static_cast<double>(decision.lp_peak_bytes) / 1e6;
  g_site_rows.push_back(SiteRow{n_sites, decision.lp_seconds,
                                decision.lp_iterations,
                                decision.lp_peak_bytes});
}
BENCHMARK(BM_SiteScale)
    ->Unit(benchmark::kSecond)
    ->Iterations(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(96);

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, [] {
    ResultTable table({"datasets", "Iridium-C QCT (s)", "Bohr QCT (s)",
                       "Bohr reduction (%)", "LP time (s)"});
    for (const auto& row : g_rows) {
      table.add_row({std::to_string(row.datasets),
                     TablePrinter::num(row.iridium_c_qct, 2),
                     TablePrinter::num(row.bohr_qct, 2),
                     TablePrinter::num(row.bohr_reduction, 2),
                     TablePrinter::num(row.lp_seconds, 4)});
    }
    table.print("Sensitivity: dataset count (40GB/site total, split evenly)");

    ResultTable site_table({"sites", "LP time (s)", "simplex pivots",
                            "peak solver bytes"});
    std::string json = "{";
    for (const auto& row : g_site_rows) {
      site_table.add_row({std::to_string(row.sites),
                          TablePrinter::num(row.lp_seconds, 4),
                          std::to_string(row.lp_iterations),
                          std::to_string(row.lp_peak_bytes)});
      if (json.size() > 1) json += ",";
      json += "\"" + std::to_string(row.sites) +
              "\":{\"lp_seconds\":" + TablePrinter::num(row.lp_seconds, 6) +
              ",\"lp_iterations\":" + std::to_string(row.lp_iterations) +
              ",\"lp_peak_bytes\":" + std::to_string(row.lp_peak_bytes) + "}";
    }
    json += "}";
    add_bench_json_field("lp_by_sites", json);
    site_table.print(
        "Sensitivity: site count (120GB total, 12 datasets, LP only)");
  });
}
