// Executing a placement decision: picking the concrete rows that leave
// each site (similarity-aware or not) and accounting for the WAN cost of
// moving them within the lag T.
//
// Movement is split into plan / simulate / apply so the controller can
// collect every dataset's planned flows, simulate them TOGETHER on the
// shared WAN (with or without injected faults), and only then apply the
// rows that actually arrived — truncating per-flow to the delivered
// prefix when the lag deadline cuts a transfer short.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/similarity_service.h"
#include "core/state.h"
#include "net/transfer.h"

namespace bohr::core {

/// One planned WAN transfer: which of `src`'s rows leave for `dst`.
struct PlannedFlow {
  std::size_t src = 0;
  std::size_t dst = 0;
  double bytes = 0.0;
  /// Indices into state.rows_at(src), in delivery-priority order —
  /// probe-matched clusters first, so a truncated prefix keeps the rows
  /// that combine best at the receiver.
  std::vector<std::size_t> row_indices;
};

/// A dataset's movement, planned but not yet applied.
struct MovementPlan {
  std::vector<PlannedFlow> flows;
  double planned_bytes = 0.0;
  std::size_t planned_rows = 0;
};

/// What applying a (possibly truncated) plan actually did.
struct AppliedMovement {
  double bytes_moved = 0.0;
  std::size_t rows_moved = 0;
  /// Planned-but-undelivered bytes (0 unless the plan was truncated).
  double shortfall_bytes = 0.0;
  std::size_t rows_truncated = 0;
};

/// Selects the rows dataset `state` moves from `src` for `dst`.
/// Similarity-aware selection takes rows from probe-matched clusters
/// first (largest clusters first — they combine best at the receiver);
/// similarity-agnostic selection picks uniformly at random (prior work's
/// behaviour, §1). Returns row indices into state.rows_at(src); at most
/// `max_rows` and never more rows than the site holds. `src_keys` is
/// state.row_keys(src) (only the similarity-aware path reads it). `taken`
/// marks indices already promised to other destinations and is updated.
std::vector<std::size_t> select_rows_for_move(
    const DatasetState& state, std::size_t src, std::size_t dst,
    std::size_t max_rows, const DatasetSimilarity* similarity,
    bool similarity_aware, std::span<const std::uint64_t> src_keys,
    std::vector<bool>& taken, Rng& rng);

/// Plans one dataset's movement matrix (move_bytes[src][dst]) without
/// touching the state: which rows would leave each site, and the WAN
/// flows that would carry them.
MovementPlan plan_movement(const DatasetState& state,
                           const std::vector<std::vector<double>>& move_bytes,
                           const DatasetSimilarity* similarity,
                           bool similarity_aware, Rng& rng);

/// Applies a plan to the state. `rows_delivered`, when given, is
/// index-aligned with plan.flows and caps each flow at its delivered
/// prefix (lag-deadline truncation / fault-abandoned flows); null means
/// everything landed.
AppliedMovement apply_movement_plan(
    DatasetState& state, const MovementPlan& plan,
    const std::vector<std::size_t>* rows_delivered = nullptr);

/// One reduce-bucket relocation the migration controller wants: bucket
/// `bucket` leaves site `from` for site `to`, carrying `bytes` of
/// buffered shuffle state.
struct DeltaMove {
  std::size_t bucket = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  double bytes = 0.0;
};

/// An incremental movement plan: the WAN flows that carry one round of
/// bucket moves, jointly costed. Unlike plan_movement() this never
/// re-runs the joint LP — it is a pure delta on the standing placement,
/// which is the whole point of migrating buckets instead of re-planning.
struct DeltaPlan {
  std::vector<DeltaMove> moves;
  std::vector<net::Flow> flows;  ///< coalesced per (from, to) pair
  double wan_bytes = 0.0;
  /// Max-min-fair makespan of the delta's flows alone on the topology.
  double est_seconds = 0.0;
};

/// Costs a round of bucket moves on the shared WAN: coalesces moves
/// sharing a (from, to) pair into one flow (first-seen order), simulates
/// them together, and fills est_seconds. Moves with from == to or
/// non-positive bytes are dropped. Deterministic in its inputs.
DeltaPlan plan_movement_delta(const net::WanTopology& topology,
                              std::vector<DeltaMove> moves);

}  // namespace bohr::core
