// SiteHealthMonitor: the probe-timeout state machine feeding the elastic
// migration controller. Everything here is deterministic — the "probes"
// are answered by the fault plan, so each test drives the clock by hand
// and asserts exact state transitions.
#include "net/site_health.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"

namespace bohr::net {
namespace {

FaultPlan dark(SiteId site, double start, double end) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{site, start, end});
  return plan;
}

TEST(SiteHealthTest, AllHealthyUnderInertPlan) {
  SiteHealthMonitor monitor(4);
  monitor.observe(FaultPlan{}, 0.0);
  monitor.observe(FaultPlan{}, 10.0);
  for (SiteId i = 0; i < 4; ++i) {
    EXPECT_EQ(monitor.health(i), SiteHealth::kHealthy);
    EXPECT_TRUE(monitor.usable(i));
    EXPECT_DOUBLE_EQ(monitor.observed_slowdown(i), 1.0);
  }
  EXPECT_EQ(monitor.usable_count(), 4u);
  EXPECT_EQ(monitor.describe(), "0:H 1:H 2:H 3:H");
}

TEST(SiteHealthTest, DeadAfterConsecutiveMisses) {
  HealthOptions opts;
  opts.dead_after_misses = 2;
  SiteHealthMonitor monitor(2, opts);
  const FaultPlan plan = dark(1, 0.0, 100.0);
  monitor.observe(plan, 0.0);  // miss 1: not yet dead
  EXPECT_EQ(monitor.health(1), SiteHealth::kHealthy);
  monitor.observe(plan, 1.0);  // miss 2: dead
  EXPECT_EQ(monitor.health(1), SiteHealth::kDead);
  EXPECT_FALSE(monitor.usable(1));
  EXPECT_TRUE(monitor.usable(0));
  EXPECT_EQ(monitor.usable_count(), 1u);
  EXPECT_EQ(monitor.describe(), "0:H 1:X");
}

TEST(SiteHealthTest, MissedProbesBackOffExponentially) {
  // base=1s: probes are due at 0 (miss 1, wait 1), 1 (miss 2, wait 2),
  // 3 (miss 3). Observations inside a backoff window must not probe, so
  // with dead_after_misses=3 the site is still alive at t=2.
  HealthOptions opts;
  opts.probe_backoff_base_seconds = 1.0;
  opts.probe_backoff_cap_seconds = 8.0;
  opts.dead_after_misses = 3;
  SiteHealthMonitor monitor(1, opts);
  const FaultPlan plan = dark(0, 0.0, 100.0);
  monitor.observe(plan, 0.0);
  monitor.observe(plan, 0.5);  // backing off — skipped
  monitor.observe(plan, 1.0);  // miss 2
  monitor.observe(plan, 2.0);  // backing off — skipped
  EXPECT_EQ(monitor.health(0), SiteHealth::kHealthy);
  monitor.observe(plan, 3.0);  // miss 3: dead
  EXPECT_EQ(monitor.health(0), SiteHealth::kDead);
}

TEST(SiteHealthTest, RecoveryClearsDeadState) {
  SiteHealthMonitor monitor(2);
  const FaultPlan plan = dark(1, 0.0, 10.0);
  monitor.observe(plan, 0.0);
  monitor.observe(plan, 1.0);
  EXPECT_EQ(monitor.health(1), SiteHealth::kDead);
  // One recovery is not a flap pattern — the site is trusted again.
  monitor.observe(plan, 12.0);
  EXPECT_EQ(monitor.health(1), SiteHealth::kHealthy);
  EXPECT_TRUE(monitor.usable(1));
}

TEST(SiteHealthTest, FlappingSiteIsQuarantinedThenReleased) {
  HealthOptions opts;
  opts.dead_after_misses = 2;
  opts.flap_limit = 2;
  opts.flap_window_seconds = 100.0;
  opts.quarantine_seconds = 50.0;
  SiteHealthMonitor monitor(1, opts);
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 0.0, 5.0});
  plan.outages.push_back(OutageWindow{0, 10.0, 15.0});
  monitor.observe(plan, 0.0);
  monitor.observe(plan, 1.0);
  EXPECT_EQ(monitor.health(0), SiteHealth::kDead);
  monitor.observe(plan, 6.0);  // dead->alive flap #1
  EXPECT_EQ(monitor.health(0), SiteHealth::kHealthy);
  monitor.observe(plan, 10.0);
  monitor.observe(plan, 11.0);
  EXPECT_EQ(monitor.health(0), SiteHealth::kDead);
  monitor.observe(plan, 16.0);  // flap #2 inside the window: quarantine
  EXPECT_EQ(monitor.health(0), SiteHealth::kQuarantined);
  EXPECT_FALSE(monitor.usable(0));
  EXPECT_EQ(monitor.describe(), "0:Q");
  // Clean probes inside the quarantine period do not release it...
  monitor.observe(plan, 30.0);
  EXPECT_EQ(monitor.health(0), SiteHealth::kQuarantined);
  // ...holding still past quarantine_until does (16 + 50 = 66).
  monitor.observe(plan, 70.0);
  EXPECT_EQ(monitor.health(0), SiteHealth::kHealthy);
}

TEST(SiteHealthTest, SlowComputeMarksDegradedButUsable) {
  SiteHealthMonitor monitor(2);  // degraded_compute_factor defaults to 2
  FaultPlan plan;
  plan.slowdowns.push_back(SiteSlowdown{1, 0.0, 100.0, 3.0});
  monitor.observe(plan, 5.0);
  EXPECT_EQ(monitor.health(1), SiteHealth::kDegraded);
  EXPECT_TRUE(monitor.usable(1));  // degraded still takes buckets
  EXPECT_DOUBLE_EQ(monitor.observed_slowdown(1), 3.0);
  EXPECT_EQ(monitor.health(0), SiteHealth::kHealthy);
  // Window closes: back to healthy on the next probe.
  monitor.observe(plan, 100.0);
  EXPECT_EQ(monitor.health(1), SiteHealth::kHealthy);
  EXPECT_DOUBLE_EQ(monitor.observed_slowdown(1), 1.0);
}

TEST(SiteHealthTest, WeakLinkMarksDegraded) {
  SiteHealthMonitor monitor(2);  // degraded_link_factor defaults to 0.5
  FaultPlan plan;
  plan.degradations.push_back(LinkDegradation{0, 0.0, 10.0, 0.4});
  monitor.observe(plan, 1.0);
  EXPECT_EQ(monitor.health(0), SiteHealth::kDegraded);
  EXPECT_EQ(monitor.health(1), SiteHealth::kHealthy);
}

TEST(SiteHealthTest, ObserveRejectsTimeTravel) {
  SiteHealthMonitor monitor(1);
  monitor.observe(FaultPlan{}, 5.0);
  EXPECT_THROW(monitor.observe(FaultPlan{}, 4.0), bohr::ContractViolation);
}

TEST(SiteHealthTest, SerializeRestoreRoundTrips) {
  HealthOptions opts;
  opts.dead_after_misses = 2;
  SiteHealthMonitor monitor(3, opts);
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{1, 0.0, 100.0});
  plan.slowdowns.push_back(SiteSlowdown{2, 0.0, 100.0, 4.0});
  monitor.observe(plan, 0.0);
  monitor.observe(plan, 1.0);
  const std::string image = monitor.serialize();

  SiteHealthMonitor copy(3, opts);
  copy.restore(image);
  EXPECT_EQ(copy.describe(), monitor.describe());
  EXPECT_EQ(copy.serialize(), image);
  // The restored monitor continues identically.
  monitor.observe(plan, 2.0);
  copy.observe(plan, 2.0);
  EXPECT_EQ(copy.serialize(), monitor.serialize());
}

TEST(SiteHealthTest, RestoreRejectsWrongShape) {
  SiteHealthMonitor monitor(3);
  const std::string image = monitor.serialize();
  SiteHealthMonitor wrong_count(2);
  EXPECT_THROW(wrong_count.restore(image), bohr::ContractViolation);
  SiteHealthMonitor truncated(3);
  EXPECT_THROW(truncated.restore(image.substr(0, image.size() - 1)),
               bohr::ContractViolation);
}

TEST(SiteHealthTest, InflatedFlapCountIsAContractViolation) {
  // The site count and last-observed time (16 bytes), then site 0's
  // health, misses and three times (40): its u64 flap count is at 56. A
  // count no image could back must be rejected before it sizes the flap
  // list — 2^40 doubles would be 8 TiB, and 2^64 - 1 exceeds max_size.
  constexpr std::size_t kFlapCount = 56;
  const std::string image = SiteHealthMonitor(2).serialize();
  std::uint64_t stored = 1;
  std::memcpy(&stored, image.data() + kFlapCount, sizeof(stored));
  ASSERT_EQ(stored, 0u);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::string inflated = image;
    std::memcpy(inflated.data() + kFlapCount, &count, sizeof(count));
    SiteHealthMonitor restored(2);
    EXPECT_THROW(restored.restore(inflated), bohr::ContractViolation);
  }
}

TEST(SiteHealthLongHorizonTest, BackoffSaturatesOverThousandsOfRounds) {
  // A site dark for the whole run: after the exponential ramp, probes
  // settle at exactly the backoff cap. Over thousands of rounds the
  // monitor must neither overflow the backoff exponent nor resume
  // hammering the dead site — the probe cadence stays pinned at the cap.
  HealthOptions opts;
  opts.probe_backoff_base_seconds = 0.5;
  opts.probe_backoff_cap_seconds = 8.0;
  opts.dead_after_misses = 2;
  SiteHealthMonitor monitor(2, opts);
  const FaultPlan plan = dark(1, 0.0, 1e12);
  double now = 0.0;
  for (std::size_t round = 0; round < 5000; ++round) {
    monitor.observe(plan, now);
    now += 1.0;
  }
  EXPECT_EQ(monitor.health(1), SiteHealth::kDead);
  EXPECT_FALSE(monitor.usable(1));
  EXPECT_TRUE(monitor.usable(0));
  // Saturated state is a fixed point: thousands more rounds leave the
  // verdicts unchanged, and the description never flaps.
  const std::string settled = monitor.describe();
  for (std::size_t round = 0; round < 2000; ++round) {
    monitor.observe(plan, now);
    now += 1.0;
    EXPECT_EQ(monitor.describe(), settled);
  }
  EXPECT_EQ(monitor.health(1), SiteHealth::kDead);
  EXPECT_TRUE(monitor.usable(0));
}

TEST(SiteHealthLongHorizonTest, QuarantineReentryAfterCleanThenRelapse) {
  // A site flaps into quarantine, serves its full quarantine cleanly,
  // is trusted again — then relapses. The monitor must re-quarantine on
  // the relapse flaps rather than grandfathering the old clean record.
  HealthOptions opts;
  opts.probe_backoff_base_seconds = 0.5;
  opts.probe_backoff_cap_seconds = 1.0;
  opts.dead_after_misses = 1;
  opts.flap_limit = 2;
  opts.flap_window_seconds = 1000.0;
  opts.quarantine_seconds = 20.0;
  SiteHealthMonitor monitor(1, opts);

  // Phase 1: flap (die/recover) until quarantined.
  double now = 0.0;
  std::size_t guard = 0;
  while (monitor.health(0) != SiteHealth::kQuarantined && guard++ < 200) {
    FaultPlan flap = dark(0, now, now + 2.0);
    monitor.observe(flap, now);        // dark -> miss -> dead
    monitor.observe(flap, now + 1.0);  // still dark
    monitor.observe(FaultPlan{}, now + 3.0);  // recovered
    now += 4.0;
  }
  ASSERT_EQ(monitor.health(0), SiteHealth::kQuarantined);
  EXPECT_FALSE(monitor.usable(0));

  // Phase 2: hold still for the full quarantine -> trusted again.
  const double clean_until = now + opts.quarantine_seconds + 5.0;
  while (now < clean_until) {
    monitor.observe(FaultPlan{}, now);
    now += 1.0;
  }
  EXPECT_EQ(monitor.health(0), SiteHealth::kHealthy);
  EXPECT_TRUE(monitor.usable(0));

  // Phase 3: relapse — flap again; quarantine must re-engage.
  guard = 0;
  while (monitor.health(0) != SiteHealth::kQuarantined && guard++ < 200) {
    FaultPlan flap = dark(0, now, now + 2.0);
    monitor.observe(flap, now);
    monitor.observe(flap, now + 1.0);
    monitor.observe(FaultPlan{}, now + 3.0);
    now += 4.0;
  }
  EXPECT_EQ(monitor.health(0), SiteHealth::kQuarantined);
  EXPECT_FALSE(monitor.usable(0));
}

TEST(SiteHealthLongHorizonTest, DeadAliveDeadCyclesStayConsistent) {
  // Long alternation of dark and clean stretches (each longer than the
  // flap window, so no quarantine): the monitor must track every edge —
  // dead during dark stretches, healthy during clean ones — without
  // state leaking across thousands of rounds.
  HealthOptions opts;
  opts.probe_backoff_base_seconds = 0.5;
  opts.probe_backoff_cap_seconds = 2.0;
  opts.dead_after_misses = 2;
  opts.flap_window_seconds = 50.0;
  opts.flap_limit = 3;
  SiteHealthMonitor monitor(2, opts);
  const double stretch = 200.0;  // >> flap window
  double now = 0.0;
  for (std::size_t cycle = 0; cycle < 50; ++cycle) {
    const FaultPlan plan = dark(0, now, now + stretch);
    while (now < stretch * (2 * cycle + 1)) {
      monitor.observe(plan, now);
      now += 1.0;
    }
    EXPECT_EQ(monitor.health(0), SiteHealth::kDead) << "cycle " << cycle;
    EXPECT_FALSE(monitor.usable(0));
    while (now < stretch * (2 * cycle + 2)) {
      monitor.observe(FaultPlan{}, now);
      now += 1.0;
    }
    EXPECT_EQ(monitor.health(0), SiteHealth::kHealthy) << "cycle " << cycle;
    EXPECT_TRUE(monitor.usable(0));
    // The untouched site never wavers.
    EXPECT_EQ(monitor.health(1), SiteHealth::kHealthy);
  }
}

}  // namespace
}  // namespace bohr::net
