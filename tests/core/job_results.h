// Test helpers over controller query results: a JobResult as words for
// bit-for-bit comparison, and a migrated reduce-bucket placement.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/controller.h"
#include "engine/job_runner.h"
#include "engine/partitioner.h"

namespace bohr::core {

/// Every field of a JobResult as a word (doubles by bit pattern), so one
/// EXPECT_EQ compares two results bit for bit.
inline std::vector<std::uint64_t> words(const engine::JobResult& r) {
  const auto b = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<std::uint64_t> w = {
      b(r.qct_seconds),       b(r.shuffle_seconds),
      b(r.wan_shuffle_bytes), r.shuffle_interruptions,
      r.shuffle_retries,      r.shuffle_flows_failed,
      r.reduce_speculations,  b(r.max_reduce_slowdown),
      r.reduce_partial,       r.reduce_buckets_dropped,
      b(r.reduce_dropped_fraction)};
  for (const engine::SiteJobMetrics& s : r.sites) {
    w.insert(w.end(), {s.input_records, s.shuffle_records,
                       b(s.shuffle_bytes), b(s.map_finish_seconds),
                       b(s.shuffle_finish_seconds),
                       b(s.reduce_finish_seconds), s.exchanged_records,
                       b(s.rdd_check_seconds)});
  }
  return w;
}

/// The prepared placement quantized into buckets, with one bucket
/// relocated the way the migration controller moves them.
inline engine::ReduceBucketMap migrated_buckets(const Controller& c) {
  engine::ReduceBucketMap map = engine::ReduceBucketMap::from_fractions(
      c.prepare_report().decision.reduce_fractions, 64);
  map.relocate(0, (map.owner[0] + 1) % map.site_count);
  return map;
}

}  // namespace bohr::core
