#include "core/similarity_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/phase_timer.h"
#include "common/timer.h"
#include "similarity/probe.h"

namespace bohr::core {

DatasetSimilarity check_similarity(const DatasetState& dataset,
                                   const SimilarityOptions& options) {
  BOHR_EXPECTS(dataset.has_cubes());
  BOHR_EXPECTS(options.probe_k > 0);
  const std::size_t n = dataset.site_count();

  DatasetSimilarity result;
  result.self.assign(n, 0.0);
  result.pair.assign(n, std::vector<double>(n, 0.0));
  result.matched_keys.assign(
      n, std::vector<std::unordered_set<std::uint64_t>>(n));

  const auto weights = dataset.cube_type_weights();
  const WallTimer timer;

  // Self-similarity straight from each site's dimension cubes. Sites are
  // independent; each index writes its own slots.
  {
    ScopedPhase phase("probe.self");
    parallel_for(n, [&](std::size_t i) {
      result.self[i] =
          similarity::self_similarity(dataset.cubes_at(i), weights);
      result.pair[i][i] = result.self[i];
    });
  }

  // Probe exchange: every site builds one probe; every other site scores
  // it. (The paper sends probes from the bottleneck site; building them
  // everywhere lets the joint LP consider moving data out of any site.
  // Probes are tiny — k records — so the extra traffic is negligible.)
  //
  // Threaded in three passes that reproduce the serial loop bit for bit:
  // (a) build each live sender's probe concurrently (independent inputs;
  // the random variant derives its stream from seed ^ i, not a shared
  // stream), (b) a serial pass that replays the historical (i, j) order
  // for the fault/byte accounting — probe_bytes is a floating-point fold
  // whose rounding must not depend on scheduling — and collects the
  // surviving pairs, (c) score those pairs concurrently, each writing its
  // own (i, j) slots.
  const net::FaultPlan* faults = options.faults;
  std::vector<char> sends(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    sends[i] = !dataset.rows_at(i).empty() &&
               (faults == nullptr || !faults->site_dark_at(i, 0.0));
  }
  std::vector<similarity::Probe> probes(n);
  {
    ScopedPhase phase("probe.build");
    parallel_for(n, [&](std::size_t i) {
      if (!sends[i]) return;
      probes[i] = options.random_probe_records
                      ? similarity::build_probe_random(
                            dataset.dataset_id(), dataset.cubes_at(i), weights,
                            options.probe_k, options.seed ^ i)
                      : similarity::build_probe(dataset.dataset_id(),
                                                dataset.cubes_at(i), weights,
                                                options.probe_k);
    });
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> delivered;
  delivered.reserve(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (dataset.rows_at(i).empty()) continue;
    if (!sends[i]) {
      // A dark sender never ships a probe: every pair (i, *) times out
      // and degrades to the similarity-agnostic assumption below.
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        result.pair[i][j] = result.self[j];
        ++result.probe_pairs_lost;
      }
      continue;
    }
    const double wire_bytes = static_cast<double>(probes[i].wire_bytes());
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      result.probe_bytes += wire_bytes;
      if (faults != nullptr &&
          (faults->site_dark_at(j, 0.0) ||
           faults->probe_lost(dataset.dataset_id(), i, j))) {
        // Report lost in flight (the bytes were still spent). Degrade
        // the pair to Eq. (1)'s assumption — data moved i -> j combines
        // like local data — and leave movement for it unguided, exactly
        // the similarity-agnostic baselines' behaviour.
        result.pair[i][j] = result.self[j];
        ++result.probe_pairs_lost;
        continue;
      }
      delivered.emplace_back(static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j));
    }
  }

  // Engine keys are a pure function of the sender's probe records —
  // compute them once per sender, not once per (sender, receiver) pair.
  std::vector<std::vector<std::uint64_t>> ekeys(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!sends[i]) continue;
    ekeys[i].reserve(probes[i].records.size());
    for (const auto& rec : probes[i].records) {
      ekeys[i].push_back(engine_key(rec.coords));
    }
  }

  {
    ScopedPhase phase("probe.evaluate");
    parallel_for(delivered.size(), [&](std::size_t p) {
      const auto [i, j] = delivered[p];
      const similarity::Probe& probe = probes[i];
      const similarity::ProbeEvaluation eval =
          similarity::evaluate_probe(probe, dataset.cubes_at(j));
      result.pair[i][j] = eval.similarity;
      // Translate matched probe clusters into engine keys for movement.
      for (std::size_t r = 0; r < probe.records.size(); ++r) {
        if (!eval.matched[r]) continue;
        result.matched_keys[i][j].insert(ekeys[i][r]);
      }
    });
  }
  result.checking_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace bohr::core
