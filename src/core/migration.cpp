#include "core/migration.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"

namespace bohr::core {

namespace {

constexpr std::string_view kImageMagic = "BMIG";
constexpr std::uint32_t kImageVersion = 1;

}  // namespace

MigrationController::MigrationController(
    const net::WanTopology& topology,
    const std::vector<double>& reduce_fractions, MigrationOptions options)
    : topology_(&topology),
      buckets_(engine::ReduceBucketMap::from_fractions(reduce_fractions,
                                                       options.buckets)),
      health_(topology.site_count(), options.health),
      options_(options) {
  BOHR_EXPECTS(reduce_fractions.size() == topology.site_count());
  BOHR_EXPECTS(options_.migrate_headroom > 1.0);
  BOHR_EXPECTS(options_.assign_headroom >= 1.0);
  BOHR_EXPECTS(options_.assign_headroom < options_.migrate_headroom);
  BOHR_EXPECTS(options_.bucket_state_bytes > 0.0);
}

const MigrationRound& MigrationController::step(const net::FaultPlan& plan,
                                                double now) {
  health_.observe(plan, now);
  const std::size_t n = buckets_.site_count;

  MigrationRound round;
  round.round = rounds_;
  round.now = now;

  std::vector<std::size_t> owned(n, 0);
  for (const std::uint32_t site : buckets_.owner) ++owned[site];
  // Effective load: bucket count weighted by the slowdown the last probe
  // observed — a 4x-slowed site with 8 buckets is as hot as a healthy
  // site with 32.
  const auto load_of = [&](std::size_t site) {
    return static_cast<double>(owned[site]) *
           std::max(1.0, health_.observed_slowdown(site));
  };
  // Least-loaded usable site, ties to the lower id; `exclude` is npos or
  // a site to skip.
  const auto coldest = [&](std::size_t exclude) -> std::size_t {
    std::size_t best = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (s == exclude || !health_.usable(s)) continue;
      if (best == n || load_of(s) < load_of(best)) best = s;
    }
    return best;
  };

  std::vector<DeltaMove> moves;

  // 1. Evacuation: every bucket on a dead or quarantined site moves to
  // the least-loaded usable site. Uncapped — a stranded bucket stalls
  // the whole query. With no usable site left there is nowhere to go;
  // the placement stands and the log records the stall.
  if (health_.usable_count() > 0) {
    for (std::size_t b = 0; b < buckets_.bucket_count(); ++b) {
      const std::size_t from = buckets_.owner[b];
      if (health_.usable(from)) continue;
      const std::size_t to = coldest(from);
      BOHR_CHECK(to < n);
      moves.push_back(DeltaMove{b, from, to, options_.bucket_state_bytes});
      buckets_.relocate(b, to);
      --owned[from];
      ++owned[to];
      ++round.evacuations;
    }
  }

  // 2. Headroom rebalance: while the hottest usable site is above
  // migrate_headroom x mean, shed its lowest-numbered bucket to the
  // coldest site that is still below assign_headroom x mean.
  for (std::size_t k = 0; k < options_.max_moves_per_round; ++k) {
    double total_load = 0.0;
    std::size_t usable = 0;
    std::size_t hot = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (!health_.usable(s)) continue;
      total_load += load_of(s);
      ++usable;
      if (owned[s] > 0 && (hot == n || load_of(s) > load_of(hot))) hot = s;
    }
    if (usable < 2 || hot == n) break;
    const double mean = total_load / static_cast<double>(usable);
    if (load_of(hot) <= options_.migrate_headroom * mean + 1e-12) break;
    const std::size_t cold = coldest(hot);
    if (cold == n ||
        load_of(cold) >= options_.assign_headroom * mean - 1e-12) {
      break;
    }
    // Anti-thrash: the receiver's post-move load must stay strictly below
    // the shedder's pre-move load, or the "cold" site (e.g. a drained
    // slow site whose empty load is 0 but whose next bucket costs its
    // full slowdown) becomes the next hot site and the loop ping-pongs.
    const double cold_after =
        load_of(cold) + std::max(1.0, health_.observed_slowdown(cold));
    if (cold_after >= load_of(hot) - 1e-12) break;
    const auto hot_buckets = buckets_.buckets_at(hot);
    const std::size_t b = hot_buckets.front();
    moves.push_back(DeltaMove{b, hot, cold, options_.bucket_state_bytes});
    buckets_.relocate(b, cold);
    --owned[hot];
    ++owned[cold];
    ++round.moves;
  }

  if (!moves.empty()) {
    const DeltaPlan delta = plan_movement_delta(*topology_, moves);
    round.delta_bytes = delta.wan_bytes;
    round.delta_seconds = delta.est_seconds;
  }
  round.health = health_.describe();

  // Deterministic log line: decisions, then health, then the move list.
  char head[160];
  std::snprintf(head, sizeof(head),
                "round %zu t=%.3f evac=%zu moves=%zu bytes=%.0f secs=%.6f",
                round.round, round.now, round.evacuations, round.moves,
                round.delta_bytes, round.delta_seconds);
  log_ += head;
  log_ += " health=";
  log_ += round.health;
  for (const DeltaMove& m : moves) {
    char mv[64];
    std::snprintf(mv, sizeof(mv), " b%zu:%zu->%zu", m.bucket, m.from, m.to);
    log_ += mv;
  }
  log_ += '\n';

  total_moves_ += round.moves;
  total_evacuations_ += round.evacuations;
  total_delta_bytes_ += round.delta_bytes;
  ++rounds_;
  last_round_ = std::move(round);
  return last_round_;
}

std::uint32_t MigrationController::log_digest() const { return crc32(log_); }

std::string MigrationController::serialize() const {
  ByteWriter w;
  w.raw(kImageMagic);
  w.u32(kImageVersion);
  w.u64(buckets_.site_count);
  w.u64(buckets_.owner.size());
  for (const std::uint32_t site : buckets_.owner) w.u32(site);
  w.u64(rounds_);
  w.u64(total_moves_);
  w.u64(total_evacuations_);
  w.f64(total_delta_bytes_);
  w.str<std::uint64_t>(health_.serialize());
  w.str<std::uint64_t>(log_);
  return w.take();
}

void MigrationController::restore(std::string_view image) {
  ByteReader<ContractViolation> r(image, "migration image");
  r.magic(kImageMagic);
  if (r.u32() != kImageVersion) r.fail("unsupported version");
  if (r.u64() != buckets_.site_count) r.fail("site count mismatch");
  if (r.u64() != buckets_.owner.size()) r.fail("bucket count mismatch");
  for (auto& site : buckets_.owner) {
    site = r.u32();
    if (site >= buckets_.site_count) r.fail("bucket owner out of range");
  }
  rounds_ = r.u64();
  total_moves_ = r.u64();
  total_evacuations_ = r.u64();
  total_delta_bytes_ = r.f64();
  health_.restore(r.bytes(r.u64()));
  log_ = r.str<std::uint64_t>();
  r.expect_end();
}

}  // namespace bohr::core
