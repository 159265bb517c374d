// Geo-distributed PageRank: the paper's motivating scenario (§1, Fig 1)
// at full scale. Web-access logs accumulate in ten regions; a recurring
// PageRank-style UDF aggregates scores by URL. The example walks through
// every Bohr stage explicitly — cube pre-processing, probe exchange,
// joint placement, movement, execution — and contrasts all six schemes.
//
// Run: ./build/examples/geo_pagerank
#include <cstdio>

#include "core/controller.h"
#include "core/experiment.h"
#include "common/table.h"
#include "workload/query_mix.h"

namespace {

using namespace bohr;

core::ExperimentConfig make_config() {
  core::ExperimentConfig config;
  config.workload = workload::WorkloadKind::BigData;
  config.n_datasets = 12;
  config.generator.sites = 10;
  config.generator.rows_per_site = 480;
  config.generator.gb_per_site = 40.0 / 12;
  config.base_bandwidth = 125e6;
  config.lag_seconds = 60.0;
  config.seed = 1913;  // Bohr's Nobel year
  return config;
}

}  // namespace

int main() {
  using core::Strategy;
  const core::ExperimentConfig config = make_config();

  std::printf("Geo-distributed PageRank over %zu web-log datasets, "
              "%zu sites, %.0fGB per site total.\n\n",
              config.n_datasets, config.generator.sites,
              config.generator.gb_per_site *
                  static_cast<double>(config.n_datasets));

  // --- Step-by-step walkthrough with the full Bohr controller ----------
  {
    const net::WanTopology topo = config.make_topology();
    std::vector<core::DatasetState> states;
    Rng mix_rng(7);
    for (std::size_t a = 0; a < config.n_datasets; ++a) {
      auto bundle =
          workload::generate_dataset(config.workload, a, config.generator);
      auto mix = workload::sample_query_mix(bundle, mix_rng);
      states.emplace_back(std::move(bundle), std::move(mix),
                          /*with_cubes=*/true);
    }
    core::ControllerOptions options;
    options.strategy = Strategy::Bohr;
    options.lag_seconds = config.lag_seconds;
    options.seed = config.seed;
    core::Controller controller(topo, std::move(states), options);

    const core::PrepareReport& prep = controller.prepare();
    std::printf("Pre-processing (hidden in the %gs lag between queries):\n",
                config.lag_seconds);
    std::printf("  probe exchange ....... %.1f KiB on the WAN\n",
                prep.probe_bytes / 1024.0);
    std::printf("  joint placement LP ... %zu simplex pivots, %.3f s modeled\n",
                prep.decision.lp_iterations,
                prep.decision.modeled_lp_seconds());
    std::printf("  data movement ........ %.2f GB in %.1f s (%s)\n\n",
                prep.bytes_moved / 1e9, prep.movement_seconds,
                prep.movement_within_lag ? "fits the lag" : "LAG EXCEEDED");

    std::printf("Reduce-task placement r_i per site:\n  ");
    for (std::size_t i = 0; i < topo.site_count(); ++i) {
      std::printf("%s %.2f   ", topo.site(i).name.c_str(),
                  prep.decision.reduce_fractions[i]);
    }
    std::printf("\n\n");
  }

  // --- All six schemes side by side -------------------------------------
  const std::vector<Strategy> schemes{
      Strategy::Iridium,   Strategy::IridiumC, Strategy::BohrSim,
      Strategy::BohrJoint, Strategy::BohrRdd,  Strategy::Bohr};
  const core::WorkloadRun run = core::run_workload(config, schemes);

  TablePrinter table({"scheme", "avg QCT (s)", "PageRank UDF QCT (s)",
                      "data reduction (%)", "WAN shuffle (GB)"});
  for (const Strategy s : schemes) {
    const auto& o = run.outcome(s);
    const auto udf = o.qct_by_kind.find(engine::QueryKind::Udf);
    table.add_row({core::to_string(s),
                   TablePrinter::num(o.avg_qct_seconds, 2),
                   TablePrinter::num(
                       udf == o.qct_by_kind.end() ? 0.0 : udf->second, 2),
                   TablePrinter::num(run.mean_data_reduction_percent(s), 2),
                   TablePrinter::num(o.wan_shuffle_bytes / 1e9, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
