#include "bench_common.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/parallel.h"
#include "common/phase_timer.h"

namespace bohr::bench {

namespace {

std::size_t env_datasets() {
  if (const char* env = std::getenv("BOHR_BENCH_DATASETS")) {
    const char* end = env + std::strlen(env);
    std::size_t n = 0;
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec == std::errc() && ptr == end && n >= 1) return n;
  }
  return 12;
}

}  // namespace

core::ExperimentConfig bench_config(workload::WorkloadKind kind,
                                    workload::InitialPlacement placement) {
  core::ExperimentConfig cfg;
  cfg.workload = kind;
  cfg.n_datasets = env_datasets();
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 480;
  // 40GB/site per workload (the paper's setting), split across datasets.
  cfg.generator.gb_per_site = 40.0 / static_cast<double>(cfg.n_datasets);
  cfg.generator.placement = placement;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.probe_k = 30;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 20181204;  // CoNEXT'18 presentation day
  return cfg;
}

const std::vector<core::Strategy>& all_strategies() {
  static const std::vector<core::Strategy> kAll{
      core::Strategy::Iridium,   core::Strategy::IridiumC,
      core::Strategy::BohrSim,   core::Strategy::BohrJoint,
      core::Strategy::BohrRdd,   core::Strategy::Bohr,
  };
  return kAll;
}

const std::vector<core::Strategy>& headline_strategies() {
  static const std::vector<core::Strategy> kHeadline{
      core::Strategy::Iridium, core::Strategy::IridiumC,
      core::Strategy::Bohr};
  return kHeadline;
}

const std::vector<core::Strategy>& component_strategies() {
  static const std::vector<core::Strategy> kComponents{
      core::Strategy::IridiumC, core::Strategy::BohrSim,
      core::Strategy::BohrJoint, core::Strategy::BohrRdd};
  return kComponents;
}

void ResultTable::print(const std::string& title) const {
  std::printf("\n=== %s ===\n%s\nCSV:\n%s\n", title.c_str(),
              table_.to_string().c_str(), table_.to_csv().c_str());
}

namespace {

/// Strips `--threads=N` / `--threads N` from argv (google-benchmark
/// rejects unknown flags) and applies it to the parallel runtime. A value
/// that is not a whole number in [1, kMaxThreads] is a usage error.
void consume_threads_flag(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else {
      argv[out++] = argv[i];
      continue;
    }
    const std::optional<std::size_t> threads = parse_thread_count(value);
    if (!threads) {
      std::fprintf(stderr, "invalid --threads value '%s': need 1..%zu\n",
                   value, kMaxThreads);
      std::exit(2);
    }
    set_thread_count(*threads);
  }
  argc = out;
  argv[argc] = nullptr;
}

}  // namespace

namespace {

/// Basename of argv[0] without a trailing ".exe"-style suffix — the
/// bench's name for the JSON result file.
std::string bench_name(const char* argv0) {
  std::string name = argv0 != nullptr ? argv0 : "bench";
  const std::size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.empty()) name = "bench";
  return name;
}

/// Writes the same JSON the BENCH_JSON epilogue prints into
/// BENCH_<name>.json (BOHR_BENCH_JSON_DIR overrides the directory).
/// Best effort: an unwritable directory is reported, never fatal — the
/// bench's measurements are already on stdout.
void write_bench_json(const std::string& name, const std::string& json) {
  std::string path;
  if (const char* dir = std::getenv("BOHR_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/";
  }
  path += "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "%s\n", json.c_str());
  std::fclose(out);
}

std::vector<std::pair<std::string, std::string>>& extra_json_fields() {
  static std::vector<std::pair<std::string, std::string>> fields;
  return fields;
}

}  // namespace

void add_bench_json_field(const std::string& key,
                          const std::string& json_value) {
  extra_json_fields().emplace_back(key, json_value);
}

int run_bench_main(int argc, char** argv,
                   const std::function<void()>& epilogue) {
  const std::string name = bench_name(argc > 0 ? argv[0] : nullptr);
  consume_threads_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (epilogue) epilogue();
  // Machine-readable run metadata: thread count plus accumulated
  // per-phase wall-clock totals (grep for "BENCH_JSON:"), followed by
  // any fields the bench registered via add_bench_json_field. The same
  // object also lands in BENCH_<name>.json so harnesses can collect
  // results without scraping stdout.
  std::string json = "{\"name\":\"" + name + "\",\"threads\":" +
                     std::to_string(thread_count()) +
                     ",\"phases\":" + phase_json();
  for (const auto& [key, value] : extra_json_fields()) {
    json += ",\"" + key + "\":" + value;
  }
  json += "}";
  std::printf("BENCH_JSON: %s\n", json.c_str());
  write_bench_json(name, json);
  return 0;
}

}  // namespace bohr::bench

namespace bohr::bench {

std::vector<LabeledRun> run_three_workloads(
    workload::InitialPlacement placement,
    const std::vector<core::Strategy>& strategies) {
  std::vector<LabeledRun> runs;
  runs.push_back({"big-data", core::run_workload(
                                  bench_config(workload::WorkloadKind::BigData,
                                               placement),
                                  strategies)});
  runs.push_back({"TPC-DS", core::run_workload(
                                bench_config(workload::WorkloadKind::TpcDs,
                                             placement),
                                strategies)});
  runs.push_back(
      {"Facebook", core::run_workload(
                       bench_config(workload::WorkloadKind::Facebook,
                                    placement),
                       strategies)});
  return runs;
}

std::vector<std::string> strategy_headers(
    std::string first, const std::vector<core::Strategy>& strategies) {
  std::vector<std::string> headers{std::move(first)};
  for (const auto s : strategies) headers.push_back(core::to_string(s));
  return headers;
}

void fill_qct_table(const std::vector<LabeledRun>& runs,
                    const std::vector<core::Strategy>& strategies,
                    ResultTable& table) {
  using engine::QueryKind;
  // Big-data splits into its three query kinds (paper's first 3 bars).
  const core::WorkloadRun& bigdata = runs.at(0).run;
  const struct {
    QueryKind kind;
    const char* label;
  } kBigDataRows[] = {{QueryKind::Scan, "Big data (scan)"},
                      {QueryKind::Udf, "Big data (UDF)"},
                      {QueryKind::Aggregation, "Big data (aggr)"}};
  for (const auto& row : kBigDataRows) {
    std::vector<std::string> cells{row.label};
    for (const auto s : strategies) {
      const auto& by_kind = bigdata.outcome(s).qct_by_kind;
      const auto it = by_kind.find(row.kind);
      cells.push_back(TablePrinter::num(
          it == by_kind.end() ? 0.0 : it->second, 2));
    }
    table.add_row(std::move(cells));
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    std::vector<std::string> cells{runs[w].label};
    for (const auto s : strategies) {
      cells.push_back(
          TablePrinter::num(runs[w].run.outcome(s).avg_qct_seconds, 2));
    }
    table.add_row(std::move(cells));
  }
}

void fill_reduction_table(const core::WorkloadRun& run,
                          const std::vector<core::Strategy>& strategies,
                          ResultTable& table) {
  const net::WanTopology topo = run.config.make_topology();
  std::vector<std::vector<double>> per_strategy;
  per_strategy.reserve(strategies.size());
  for (const auto s : strategies) {
    per_strategy.push_back(run.data_reduction_percent(s));
  }
  for (net::SiteId i = 0; i < topo.site_count(); ++i) {
    std::vector<std::string> cells{topo.site(i).name};
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      cells.push_back(TablePrinter::num(per_strategy[s][i], 2));
    }
    table.add_row(std::move(cells));
  }
  std::vector<std::string> mean_row{"MEAN"};
  for (const auto s : strategies) {
    mean_row.push_back(
        TablePrinter::num(run.mean_data_reduction_percent(s), 2));
  }
  table.add_row(std::move(mean_row));
}

}  // namespace bohr::bench
