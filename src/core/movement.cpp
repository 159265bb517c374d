#include "core/movement.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "net/transfer.h"

namespace bohr::core {

std::vector<std::size_t> select_rows_for_move(
    const DatasetState& state, std::size_t src, std::size_t dst,
    std::size_t max_rows, const DatasetSimilarity* similarity,
    bool similarity_aware, std::span<const std::uint64_t> src_keys,
    std::vector<bool>& taken, Rng& rng) {
  const auto& rows = state.rows_at(src);
  BOHR_EXPECTS(taken.size() == rows.size());
  std::vector<std::size_t> available;
  available.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!taken[i]) available.push_back(i);
  }
  const std::size_t want = std::min(max_rows, available.size());
  std::vector<std::size_t> chosen;
  if (want == 0) return chosen;
  chosen.reserve(want);

  if (similarity_aware && similarity != nullptr) {
    const std::size_t specs = state.bundle().query_types.size();
    BOHR_EXPECTS(src_keys.size() == rows.size() * specs);
    const auto& matched = similarity->matched_keys[src][dst];
    // The dimension cube clusters identical records (§4.1), so movement
    // operates on whole clusters. Ordering:
    //   1. probe-matched clusters, largest first — every record merges
    //      into an existing cell at the receiver (Fig 1c);
    //   2. the rest in random order — the probe is the only cross-site
    //      similarity information Bohr has (§4.2), so once the matched
    //      clusters are exhausted the remainder is unguided. (This is
    //      what makes the probe size k matter, Figs 12/13.)
    // Group each row under the matched probe cluster it belongs to (its
    // projected key under whichever query type the probe record used).
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_cluster;
    std::vector<std::size_t> unguided;
    for (const std::size_t i : available) {
      const auto keys = src_keys.subspan(i * specs, specs);
      const auto hit = std::ranges::find_if(
          keys, [&](std::uint64_t key) { return matched.contains(key); });
      if (hit != keys.end()) {
        by_cluster[*hit].push_back(i);
      } else {
        unguided.push_back(i);
      }
    }
    std::vector<const std::vector<std::size_t>*> matched_order;
    matched_order.reserve(by_cluster.size());
    for (const auto& [key, members] : by_cluster) {
      matched_order.push_back(&members);
    }
    std::sort(matched_order.begin(), matched_order.end(),
              [](const auto* a, const auto* b) {
                if (a->size() != b->size()) return a->size() > b->size();
                return a->front() < b->front();
              });
    for (const auto* members : matched_order) {
      for (const std::size_t i : *members) {
        if (chosen.size() >= want) break;
        chosen.push_back(i);
      }
      if (chosen.size() >= want) break;
    }
    rng.shuffle(unguided);
    for (const std::size_t i : unguided) {
      if (chosen.size() >= want) break;
      chosen.push_back(i);
    }
  } else {
    // Similarity-agnostic: uniform random selection (prior work).
    rng.shuffle(available);
    chosen.assign(available.begin(),
                  available.begin() + static_cast<std::ptrdiff_t>(want));
  }
  for (const std::size_t i : chosen) taken[i] = true;
  return chosen;
}

MovementPlan plan_movement(const DatasetState& state,
                           const std::vector<std::vector<double>>& move_bytes,
                           const DatasetSimilarity* similarity,
                           bool similarity_aware, Rng& rng) {
  const std::size_t n = state.site_count();
  BOHR_EXPECTS(move_bytes.size() == n);

  const bool keyed = similarity_aware && similarity != nullptr;
  MovementPlan plan;
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<bool> taken(state.rows_at(src).size(), false);
    std::vector<std::uint64_t> keys;  // row_keys(src), once src ships
    // Serve destinations in decreasing byte order so the best-matched
    // clusters go where the LP wants the most data.
    std::vector<std::size_t> dsts;
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst != src && move_bytes[src][dst] > 0.0) dsts.push_back(dst);
    }
    std::sort(dsts.begin(), dsts.end(), [&](std::size_t a, std::size_t b) {
      return move_bytes[src][a] > move_bytes[src][b];
    });
    for (const std::size_t dst : dsts) {
      const auto want = static_cast<std::size_t>(
          std::llround(move_bytes[src][dst] / state.bundle().bytes_per_row));
      if (want == 0) continue;
      if (keyed && keys.empty()) keys = state.row_keys(src);
      std::vector<std::size_t> indices =
          select_rows_for_move(state, src, dst, want, similarity,
                               similarity_aware, keys, taken, rng);
      if (indices.empty()) continue;
      const double bytes = static_cast<double>(indices.size()) *
                           state.bundle().bytes_per_row;
      plan.planned_rows += indices.size();
      plan.planned_bytes += bytes;
      plan.flows.push_back(PlannedFlow{src, dst, bytes, std::move(indices)});
    }
  }
  return plan;
}

AppliedMovement apply_movement_plan(
    DatasetState& state, const MovementPlan& plan,
    const std::vector<std::size_t>* rows_delivered) {
  BOHR_EXPECTS(rows_delivered == nullptr ||
               rows_delivered->size() == plan.flows.size());
  AppliedMovement applied;
  const std::size_t n = state.site_count();
  // Group per source so one source's removals don't invalidate another
  // flow's indices (move_rows_multi handles all of a source at once).
  std::vector<std::vector<DatasetState::MoveTarget>> per_src(n);
  for (std::size_t f = 0; f < plan.flows.size(); ++f) {
    const PlannedFlow& flow = plan.flows[f];
    std::size_t keep = flow.row_indices.size();
    if (rows_delivered != nullptr) {
      keep = std::min(keep, (*rows_delivered)[f]);
    }
    applied.rows_truncated += flow.row_indices.size() - keep;
    if (keep == 0) continue;
    std::vector<std::size_t> indices(flow.row_indices.begin(),
                                     flow.row_indices.begin() +
                                         static_cast<std::ptrdiff_t>(keep));
    applied.rows_moved += keep;
    applied.bytes_moved +=
        static_cast<double>(keep) * state.bundle().bytes_per_row;
    per_src[flow.src].push_back(
        DatasetState::MoveTarget{flow.dst, std::move(indices)});
  }
  applied.shortfall_bytes = std::max(0.0, plan.planned_bytes -
                                              applied.bytes_moved);
  for (std::size_t src = 0; src < n; ++src) {
    if (!per_src[src].empty()) {
      state.move_rows_multi(src, std::move(per_src[src]));
    }
  }
  return applied;
}

DeltaPlan plan_movement_delta(const net::WanTopology& topology,
                              std::vector<DeltaMove> moves) {
  const std::size_t n = topology.site_count();
  DeltaPlan plan;
  plan.moves.reserve(moves.size());
  // Coalesce per (from, to) pair, keeping first-seen flow order so the
  // plan is a pure function of the move list.
  std::vector<std::size_t> flow_of(n * n, static_cast<std::size_t>(-1));
  for (DeltaMove& m : moves) {
    BOHR_EXPECTS(m.from < n && m.to < n);
    if (m.from == m.to || m.bytes <= 0.0) continue;
    const std::size_t pair = m.from * n + m.to;
    if (flow_of[pair] == static_cast<std::size_t>(-1)) {
      flow_of[pair] = plan.flows.size();
      plan.flows.push_back(net::Flow{m.from, m.to, 0.0, 0.0});
    }
    plan.flows[flow_of[pair]].bytes += m.bytes;
    plan.wan_bytes += m.bytes;
    plan.moves.push_back(m);
  }
  if (!plan.flows.empty()) {
    const auto results = net::simulate_flows(topology, plan.flows);
    for (const auto& r : results) {
      plan.est_seconds = std::max(plan.est_seconds, r.finish_time);
    }
  }
  return plan;
}

}  // namespace bohr::core
