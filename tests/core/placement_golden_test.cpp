// Pins the pivot path of the placement LP's candidate-list pricing.
//
// At 32 sites the x-step LP has 11,904 movement columns, above the
// simplex's 8,192-column partial-pricing threshold, so every x-step
// solve prices through the 512-entry candidate list and its refills.
// The problem is bench_sensitivity_scale's 32-site shape (12 datasets,
// 120 GB in total, three bandwidth tiers), built by the generator the
// bench uses. The expected values were recorded before refills priced
// their columns in place; they must hold bit for bit:
//   - total simplex pivots;
//   - each alternation round's x- and r-step pivots and warm-start flags;
//   - a crc32 over the bit patterns of move_bytes, reduce_fractions and
//     predicted_shuffle_seconds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "core/placement.h"
#include "site_scale_problem.h"

namespace bohr::core {
namespace {

std::uint32_t decision_crc(const PlacementDecision& decision) {
  ByteWriter out;
  for (const auto& from : decision.move_bytes) {
    for (const auto& to : from) {
      for (const double bytes : to) out.f64(bytes);
    }
  }
  for (const double r : decision.reduce_fractions) out.f64(r);
  out.f64(decision.predicted_shuffle_seconds);
  return crc32(out.take());
}

TEST(PlacementGoldenTest, CandidateListPivotPathAt32Sites) {
  JointLpOptions options;
  options.max_rounds = 2;
  const PlacementDecision decision =
      joint_lp_placement(bench::site_scale_problem(32), options);
  ASSERT_TRUE(decision.lp_converged);

  EXPECT_EQ(decision.lp_iterations, 5290u);
  const std::vector<AlternationRoundStats> want = {
      {1592, 47, false, false},
      {0, 0, true, true},
  };
  ASSERT_EQ(decision.alternation_rounds.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const AlternationRoundStats& got = decision.alternation_rounds[r];
    EXPECT_EQ(got.x_iterations, want[r].x_iterations);
    EXPECT_EQ(got.r_iterations, want[r].r_iterations);
    EXPECT_EQ(got.x_warm_started, want[r].x_warm_started);
    EXPECT_EQ(got.r_warm_started, want[r].r_warm_started);
  }
  const std::uint32_t crc = decision_crc(decision);
  EXPECT_EQ(crc, 0x244cd050u) << std::hex << "actual crc32 0x" << crc;
}

}  // namespace
}  // namespace bohr::core
