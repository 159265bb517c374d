// Bring-your-own-data workflow: export a dataset to CSV (stand-in for a
// real trace), re-import it, inspect it with a cube query, and run the
// full Bohr-vs-baseline comparison on it.
//
// Run: ./build/examples/trace_import
#include <cstdio>
#include <sstream>

#include "core/experiment.h"
#include "olap/cube_query.h"
#include "workload/query_mix.h"
#include "workload/trace_io.h"

int main() {
  using namespace bohr;

  // 1. A "trace" on disk — here synthesized, but any CSV with the same
  //    header works.
  workload::GeneratorConfig gen;
  gen.sites = 10;
  gen.rows_per_site = 480;
  gen.gb_per_site = 40.0 / 6;
  gen.seed = 604;
  const auto reference =
      workload::generate_dataset(workload::WorkloadKind::BigData, 0, gen);
  std::stringstream csv;
  workload::write_csv(csv, reference);
  std::printf("trace: %zu rows, header '%.40s...'\n",
              reference.total_rows(), csv.str().c_str());

  // 2. Import it back (in a real deployment, read_csv reads the trace
  //    file through an std::ifstream).
  const auto imported = workload::read_csv(csv, reference, gen.sites);

  // 3. Build one site's cube and poke at it: the three URLs with the
  //    most records.
  Rng rng(1);
  auto mix = workload::sample_query_mix(imported, rng);
  core::DatasetState state(imported, mix, /*with_cubes=*/true);
  olap::CubeQuery by_url;
  by_url.group_by = {0};  // url
  by_url.aggregate = olap::CubeAggregate::Count;
  by_url.top_k = 3;
  const auto top_urls = olap::execute(state.cubes_at(0).base_cube(), by_url);
  std::printf("site 0 top URLs by record count:");
  for (const auto& row : top_urls) {
    std::printf("  url#%llu x%llu",
                static_cast<unsigned long long>(row.group[0]),
                static_cast<unsigned long long>(row.count));
  }
  std::printf("\n");

  // 4. Full comparison on the imported data. run_workload regenerates
  //    deterministically from the same seed, so configure it identically.
  core::ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 6;
  cfg.generator = gen;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.seed = 604;
  const auto run = core::run_workload(
      cfg, {core::Strategy::IridiumC, core::Strategy::Bohr});
  std::printf("Iridium-C %.2fs vs Bohr %.2fs (reduction %.1f%% vs %.1f%%)\n",
              run.outcome(core::Strategy::IridiumC).avg_qct_seconds,
              run.outcome(core::Strategy::Bohr).avg_qct_seconds,
              run.mean_data_reduction_percent(core::Strategy::IridiumC),
              run.mean_data_reduction_percent(core::Strategy::Bohr));
  return 0;
}
