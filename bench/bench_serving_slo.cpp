// Serving SLO sweep: offered load vs tail query completion time.
//
// One prepared Bohr controller serves the multi-tenant Poisson/Zipf
// stream at increasing per-tenant arrival rates spanning under- to
// over-subscription of the execution slots. The p99 QCT by offered load
// is published as the `p99_by_load` JSON series; every number is
// modeled virtual time, so the series is byte-stable across hosts,
// build types, and thread counts — tools/perf_smoke.py gates it against
// the checked-in baseline as a model-drift alarm.
#include "bench_common.h"

#include "serve/server.h"

namespace {

using namespace bohr;
using namespace bohr::bench;

constexpr double kRates[] = {0.02, 0.05, 0.1, 0.2, 0.4};
constexpr std::size_t kTenants = 4;
/// Expected arrivals per load point, which sizes its window: two Poisson
/// standard deviations above 10,000, so every point realizes at least
/// 10,000 queries and its p99 has ~100 samples beyond it instead of
/// being the largest of a few dozen.
constexpr double kQueriesPerPoint = 10200.0;

struct Row {
  double offered_qps = 0.0;  // rate x tenants
  serve::ServeReport report;
};
std::vector<Row> g_rows;

serve::ServeOptions serving_options(double rate) {
  serve::ServeOptions opts;
  opts.arrivals.tenants = kTenants;
  opts.arrivals.arrival_rate_qps = rate;
  opts.arrivals.duration_seconds =
      kQueriesPerPoint / (rate * static_cast<double>(kTenants));
  opts.arrivals.seed = 20181204;
  opts.batching.max_batch = 8;
  opts.batching.max_delay_seconds = 0.25;
  opts.slots = 4;
  opts.migration_period_seconds = 30.0;
  return opts;
}

void BM_Serving_Slo(benchmark::State& state) {
  const auto cfg = bench_config(workload::WorkloadKind::BigData);
  core::Controller controller =
      core::make_controller(cfg, core::Strategy::Bohr);
  controller.prepare();
  for (auto _ : state) {
    g_rows.clear();
    for (const double rate : kRates) {
      Row row;
      row.offered_qps = rate * static_cast<double>(kTenants);
      row.report = serve::run_serving(controller, serving_options(rate));
      g_rows.push_back(std::move(row));
    }
  }
}
BENCHMARK(BM_Serving_Slo)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, [] {
    ResultTable table({"offered load (qps)", "queries", "p50 (s)", "p95 (s)",
                       "p99 (s)", "max (s)", "throughput (qps)",
                       "makespan (s)"});
    std::string json = "{";
    for (const auto& row : g_rows) {
      const LatencySummary& s = row.report.summary;
      table.add_row({TablePrinter::num(row.offered_qps, 2),
                     std::to_string(row.report.queries),
                     TablePrinter::num(s.p50_seconds, 3),
                     TablePrinter::num(s.p95_seconds, 3),
                     TablePrinter::num(s.p99_seconds, 3),
                     TablePrinter::num(s.max_seconds, 3),
                     TablePrinter::num(s.throughput_qps, 4),
                     TablePrinter::num(row.report.makespan_seconds, 2)});
      if (json.size() > 1) json += ",";
      json += "\"" + TablePrinter::num(row.offered_qps, 2) +
              "\":" + TablePrinter::num(s.p99_seconds, 6);
    }
    json += "}";
    // p99_by_load is what tools/perf_smoke.py --key gates on.
    add_bench_json_field("p99_by_load", json);
    table.print("Serving SLO: offered load vs tail QCT");
  });
}
