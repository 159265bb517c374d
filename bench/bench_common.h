// Shared scaffolding for the per-figure/per-table benchmark binaries.
//
// Every bench registers its measurements with google-benchmark (one
// iteration per configuration — these are system experiments, not
// microbenchmarks) and collects rows into a TablePrinter that is printed
// after the run, mirroring the paper's tables and figure series.
#pragma once

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"

namespace bohr::bench {

/// Default experiment scale, tuned so every bench finishes in seconds on
/// one core while keeping the paper's regime: 40GB/site/workload split
/// across the datasets, movement budget ~30-40% of a site's data within
/// the 30s lag, and QCTs landing in the paper's 2-16s band.
/// Override the dataset count with BOHR_BENCH_DATASETS, a whole decimal
/// number >= 1 with no sign, space or trailing character; anything else
/// means the default, 12. No upper cap: the paper uses 300 — linear in
/// runtime, identical code path.
core::ExperimentConfig bench_config(
    workload::WorkloadKind kind,
    workload::InitialPlacement placement =
        workload::InitialPlacement::Random);

/// The six schemes in the paper's presentation order.
const std::vector<core::Strategy>& all_strategies();

/// Fig 6/7 main-comparison subset.
const std::vector<core::Strategy>& headline_strategies();

/// Fig 10/11 component-microbenchmark subset.
const std::vector<core::Strategy>& component_strategies();

/// Shared result sink printed at the end of the bench binary.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> headers)
      : table_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    table_.add_row(std::move(cells));
  }

  /// Prints the table plus CSV block (prefixed for easy grepping).
  void print(const std::string& title) const;

 private:
  TablePrinter table_;
};

/// Registers an extra top-level field for this bench's machine-readable
/// result object (printed as BENCH_JSON and written to BENCH_<name>.json).
/// `json_value` must already be valid JSON (a number, string, object, …).
/// Call from the epilogue — fields are emitted after it runs. This is how
/// a bench publishes its measured rows (not just phase timings) to perf
/// gates like tools/perf_smoke.py.
void add_bench_json_field(const std::string& key,
                          const std::string& json_value);

/// Runs registered benchmarks, then `epilogue`. Returns main()'s status.
int run_bench_main(int argc, char** argv, const std::function<void()>& epilogue);

}  // namespace bohr::bench

namespace bohr::bench {

/// One workload's comparison run, labeled for table rows.
struct LabeledRun {
  std::string label;
  core::WorkloadRun run;
};

/// Runs big-data, TPC-DS, and Facebook with the given schemes.
std::vector<LabeledRun> run_three_workloads(
    workload::InitialPlacement placement,
    const std::vector<core::Strategy>& strategies);

/// QCT rows in the paper's Fig 6/7/10 layout: "Big data (scan)",
/// "Big data (UDF)", "Big data (aggr)", "TPC-DS", "Facebook".
void fill_qct_table(const std::vector<LabeledRun>& runs,
                    const std::vector<core::Strategy>& strategies,
                    ResultTable& table);

/// Per-site data-reduction rows (Fig 8/9/11 layout) for the big-data run.
void fill_reduction_table(const core::WorkloadRun& run,
                          const std::vector<core::Strategy>& strategies,
                          ResultTable& table);

/// Headers: "workload"/"site" column followed by scheme names.
std::vector<std::string> strategy_headers(
    std::string first, const std::vector<core::Strategy>& strategies);

}  // namespace bohr::bench
