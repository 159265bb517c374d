// Ablation: DIMSUM's oversampling parameter gamma trades computation for
// accuracy (§6). Sweep gamma over synthetic RDD partitions and report
// pairs examined, mean absolute error vs exact Jaccard, and wall time.
#include "bench_common.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/timer.h"
#include "similarity/dimsum.h"
#include "similarity/metrics.h"

namespace {

using namespace bohr;
using namespace bohr::bench;

struct Row {
  double gamma;
  std::uint64_t examined;
  std::uint64_t skipped;
  double mae;
  double millis;
};
std::vector<Row> g_rows;

std::vector<std::vector<std::uint64_t>> make_partitions() {
  std::vector<std::vector<std::uint64_t>> parts;
  Rng rng(7);
  // 48 partitions in similarity families of 4, with heterogeneous sizes.
  for (int family = 0; family < 12; ++family) {
    const std::uint64_t base = static_cast<std::uint64_t>(family) * 100000;
    const auto size = static_cast<std::size_t>(rng.range(50, 800));
    for (int member = 0; member < 4; ++member) {
      std::vector<std::uint64_t> keys;
      keys.reserve(size);
      for (std::size_t k = 0; k < size; ++k) {
        // ~70% family-shared keys, 30% private noise.
        keys.push_back(rng.bernoulli(0.7)
                           ? base + rng.below(size)
                           : base + 50000 + rng.below(10 * size));
      }
      // dimsum_jaccard takes each partition as its sorted distinct keys.
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      parts.push_back(std::move(keys));
    }
  }
  return parts;
}

void BM_DimsumGamma(benchmark::State& state) {
  const auto parts = make_partitions();

  // Exact ground truth for the error metric.
  similarity::DimsumParams exact_params;
  exact_params.exact = true;
  exact_params.gamma = 1e18;
  const auto truth = similarity::dimsum_jaccard(parts, exact_params);

  const double gamma = static_cast<double>(state.range(0)) / 100.0;
  Row row{gamma, 0, 0, 0.0, 0.0};
  for (auto _ : state) {
    similarity::DimsumParams params;
    params.gamma = gamma;
    params.num_hashes = 64;
    const WallTimer timer;
    const auto result = similarity::dimsum_jaccard(parts, params);
    row.millis = timer.elapsed_seconds() * 1e3;
    row.examined = result.pairs_examined;
    row.skipped = result.pairs_skipped;
    double err = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      for (std::size_t j = i + 1; j < parts.size(); ++j) {
        err += std::abs(result.matrix.get(i, j) - truth.matrix.get(i, j));
        ++count;
      }
    }
    row.mae = err / static_cast<double>(count);
  }
  state.counters["examined"] = static_cast<double>(row.examined);
  state.counters["mae"] = row.mae;
  g_rows.push_back(row);
}
// Args are gamma*100 (benchmark args are integers).
BENCHMARK(BM_DimsumGamma)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, [] {
    ResultTable table(
        {"gamma", "pairs examined", "pairs skipped", "MAE vs exact",
         "time (ms)"});
    for (const auto& row : g_rows) {
      table.add_row({TablePrinter::num(row.gamma, 2),
                     std::to_string(row.examined),
                     std::to_string(row.skipped),
                     TablePrinter::num(row.mae, 4),
                     TablePrinter::num(row.millis, 3)});
    }
    table.print("Ablation: DIMSUM gamma (accuracy vs computation)");
  });
}
