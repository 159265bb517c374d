#include "similarity/probe.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace bohr::similarity {

std::uint64_t Probe::wire_bytes() const {
  std::uint64_t bytes = 16;  // header: dataset id + record count
  for (const auto& r : records) {
    bytes += 8 /*qt*/ + 8 /*size*/ + r.coords.size() * sizeof(olap::MemberId);
  }
  return bytes;
}

namespace {

/// Largest-remainder apportionment of `k` slots by weight; every positive
/// weight receives at least one slot when k >= #positive-weights.
std::vector<std::size_t> apportion(std::span<const double> weights,
                                   std::size_t k) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> out(n, 0);
  double total = 0.0;
  for (const double w : weights) {
    BOHR_EXPECTS(w >= 0.0);
    total += w;
  }
  BOHR_EXPECTS(total > 0.0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (frac, index)
  remainders.reserve(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact = static_cast<double>(k) * weights[i] / total;
    out[i] = static_cast<std::size_t>(exact);
    assigned += out[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // deterministic tie-break
  });
  for (std::size_t r = 0; assigned < k && r < remainders.size(); ++r) {
    ++out[remainders[r].second];
    ++assigned;
  }
  // Guarantee a slot to every positive weight by stealing from the largest.
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] > 0.0 && out[i] == 0) {
      const auto richest = static_cast<std::size_t>(
          std::max_element(out.begin(), out.end()) - out.begin());
      if (out[richest] > 1) {
        --out[richest];
        out[i] = 1;
      }
    }
  }
  return out;
}

}  // namespace

Probe build_probe(std::size_t dataset_id, const olap::DatasetCubes& cubes,
                  std::span<const QueryTypeWeight> weights, std::size_t k) {
  BOHR_EXPECTS(!weights.empty());
  BOHR_EXPECTS(k > 0);
  std::vector<double> ws;
  ws.reserve(weights.size());
  for (const auto& w : weights) {
    BOHR_EXPECTS(w.query_type < cubes.query_type_count());
    ws.push_back(w.weight);
  }
  const std::vector<std::size_t> slots = apportion(ws, k);

  Probe probe;
  probe.dataset_id = dataset_id;
  probe.records.reserve(k);
  for (std::size_t w = 0; w < weights.size(); ++w) {
    if (slots[w] == 0) continue;
    const olap::OlapCube& cube = cubes.dimension_cube(weights[w].query_type);
    for (const olap::Cell& cell : cube.top_cells(slots[w])) {
      probe.records.push_back(
          ProbeRecord{weights[w].query_type, cell.coords, cell.agg.count});
    }
  }
  return probe;
}

Probe build_probe_random(std::size_t dataset_id,
                         const olap::DatasetCubes& cubes,
                         std::span<const QueryTypeWeight> weights,
                         std::size_t k, std::uint64_t seed) {
  BOHR_EXPECTS(!weights.empty());
  BOHR_EXPECTS(k > 0);
  std::vector<double> ws;
  ws.reserve(weights.size());
  for (const auto& w : weights) {
    BOHR_EXPECTS(w.query_type < cubes.query_type_count());
    ws.push_back(w.weight);
  }
  const std::vector<std::size_t> slots = apportion(ws, k);

  Rng rng(seed);
  Probe probe;
  probe.dataset_id = dataset_id;
  probe.records.reserve(k);
  for (std::size_t w = 0; w < weights.size(); ++w) {
    if (slots[w] == 0) continue;
    // Sample cells uniformly (deterministic order + shuffle).
    std::vector<olap::Cell> all =
        cubes.dimension_cube(weights[w].query_type).top_cells(0);
    rng.shuffle(all);
    const std::size_t take = std::min(slots[w], all.size());
    for (std::size_t c = 0; c < take; ++c) {
      probe.records.push_back(ProbeRecord{weights[w].query_type,
                                          all[c].coords, all[c].agg.count});
    }
  }
  return probe;
}

ProbeEvaluation evaluate_probe(const Probe& probe,
                               const olap::DatasetCubes& receiver) {
  ProbeEvaluation eval;
  eval.matched.resize(probe.records.size(), 0);
  double matched_weight = 0.0;
  double total_weight = 0.0;
  for (std::size_t r = 0; r < probe.records.size(); ++r) {
    const ProbeRecord& rec = probe.records[r];
    BOHR_EXPECTS(rec.query_type < receiver.query_type_count());
    const double w = static_cast<double>(rec.cluster_size);
    total_weight += w;
    if (receiver.dimension_cube(rec.query_type).find(rec.coords) != nullptr) {
      eval.matched[r] = 1;
      matched_weight += w;
    }
  }
  eval.similarity = total_weight > 0.0 ? matched_weight / total_weight : 0.0;
  return eval;
}

double self_similarity(const olap::DatasetCubes& cubes,
                       std::span<const QueryTypeWeight> weights) {
  BOHR_EXPECTS(!weights.empty());
  double total_w = 0.0;
  double acc = 0.0;
  for (const auto& w : weights) {
    BOHR_EXPECTS(w.query_type < cubes.query_type_count());
    total_w += w.weight;
    acc += w.weight *
           cubes.dimension_cube(w.query_type).combine_effectiveness();
  }
  BOHR_EXPECTS(total_w > 0.0);
  return acc / total_w;
}

std::vector<std::size_t> allocate_probe_budget(
    std::span<const double> dataset_sizes, std::size_t total_k) {
  BOHR_EXPECTS(!dataset_sizes.empty());
  BOHR_EXPECTS(total_k >= dataset_sizes.size());
  return apportion(dataset_sizes, total_k);
}

}  // namespace bohr::similarity
