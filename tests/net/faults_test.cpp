#include "net/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"

namespace bohr::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

WanTopology two_sites(double cap = 10.0) {
  return WanTopology({Site{"A", cap, cap}, Site{"B", cap, cap}});
}

// ---------------------------------------------------------------------------
// FaultPlan helpers.

TEST(FaultPlanTest, EmptyAndWanQuiet) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.wan_quiet());
  EXPECT_EQ(plan.event_count(), 0u);

  plan.lp_failure = true;
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.wan_quiet());  // lp_failure is control-plane only

  plan.lp_failure = false;
  plan.probe_loss_probability = 0.1;
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.wan_quiet());

  plan.probe_loss_probability = 0.0;
  plan.kills.push_back(FlowKill{2.0});
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.wan_quiet());
  EXPECT_EQ(plan.event_count(), 1u);
}

TEST(FaultPlanTest, SiteDarkWindowsAreHalfOpen) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{2, 1.0, 5.0});
  EXPECT_FALSE(plan.site_dark_at(2, 0.5));
  EXPECT_TRUE(plan.site_dark_at(2, 1.0));
  EXPECT_TRUE(plan.site_dark_at(2, 4.999));
  EXPECT_FALSE(plan.site_dark_at(2, 5.0));
  EXPECT_FALSE(plan.site_dark_at(3, 2.0));  // other sites unaffected
}

TEST(FaultPlanTest, RecoveryTimeChasesOverlappingWindows) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{2, 0.0, 5.0});
  plan.outages.push_back(OutageWindow{2, 4.0, 9.0});
  EXPECT_DOUBLE_EQ(plan.recovery_time(2, 1.0), 9.0);
  // Not dark -> returns t unchanged.
  EXPECT_DOUBLE_EQ(plan.recovery_time(2, 9.0), 9.0);
  EXPECT_DOUBLE_EQ(plan.recovery_time(0, 1.0), 1.0);
}

TEST(FaultPlanTest, CapacityFactorsComposeWithOutages) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{1, 0.0, 4.0});
  plan.degradations.push_back(LinkDegradation{1, 0.0, 10.0, 0.5,
                                              /*uplink=*/true,
                                              /*downlink=*/false});
  // Dark dominates everything.
  EXPECT_DOUBLE_EQ(plan.uplink_factor(1, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(plan.downlink_factor(1, 2.0), 0.0);
  // After recovery only the degraded direction is scaled.
  EXPECT_DOUBLE_EQ(plan.uplink_factor(1, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(plan.downlink_factor(1, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.uplink_factor(1, 10.0), 1.0);  // window closed
}

TEST(FaultPlanTest, NextEventAfterWalksAllEdges) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 1.0, 5.0});
  plan.degradations.push_back(LinkDegradation{1, 3.0, 7.0, 0.5});
  plan.kills.push_back(FlowKill{6.0});
  EXPECT_DOUBLE_EQ(plan.next_event_after(0.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.next_event_after(1.0), 3.0);  // strictly after
  EXPECT_DOUBLE_EQ(plan.next_event_after(5.5), 6.0);
  EXPECT_DOUBLE_EQ(plan.next_event_after(7.0), kInf);
}

TEST(FaultPlanTest, RestrictedToProjectsPhases) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 0.0, 5.0, kPhaseProbe});
  plan.degradations.push_back(
      LinkDegradation{1, 0.0, 5.0, 0.5, true, true, kPhaseQuery});
  plan.kills.push_back(FlowKill{2.0});  // all phases
  plan.probe_loss_probability = 0.2;
  plan.lp_failure = true;

  const FaultPlan probe = plan.restricted_to(kPhaseProbe);
  EXPECT_EQ(probe.outages.size(), 1u);
  EXPECT_EQ(probe.degradations.size(), 0u);
  EXPECT_EQ(probe.kills.size(), 1u);
  EXPECT_DOUBLE_EQ(probe.probe_loss_probability, 0.2);

  const FaultPlan query = plan.restricted_to(kPhaseQuery);
  EXPECT_EQ(query.outages.size(), 0u);
  EXPECT_EQ(query.degradations.size(), 1u);
  EXPECT_EQ(query.kills.size(), 1u);
  // Probe loss is meaningless outside the probe exchange.
  EXPECT_DOUBLE_EQ(query.probe_loss_probability, 0.0);
  EXPECT_TRUE(query.lp_failure);  // control-plane flags survive projection

  const FaultPlan move = plan.restricted_to(kPhaseMovement);
  EXPECT_EQ(move.event_count(), 1u);  // only the wildcard kill
}

TEST(FaultPlanTest, ProbeLossIsDeterministicAndCalibrated) {
  FaultPlan plan;
  plan.probe_loss_probability = 0.35;
  std::size_t lost = 0, total = 0;
  for (std::size_t d = 0; d < 10; ++d) {
    for (SiteId i = 0; i < 10; ++i) {
      for (SiteId j = 0; j < 10; ++j) {
        if (i == j) continue;
        const bool first = plan.probe_lost(d, i, j);
        EXPECT_EQ(first, plan.probe_lost(d, i, j));  // stable hash
        lost += first ? 1u : 0u;
        ++total;
      }
    }
  }
  const double fraction = static_cast<double>(lost) / total;
  EXPECT_GT(fraction, 0.2);
  EXPECT_LT(fraction, 0.5);

  plan.probe_loss_probability = 0.0;
  EXPECT_FALSE(plan.probe_lost(0, 0, 1));
  plan.probe_loss_probability = 1.0;
  EXPECT_TRUE(plan.probe_lost(0, 0, 1));

  // A different seed must shuffle which pairs are lost.
  FaultPlan reseeded;
  reseeded.probe_loss_probability = 0.35;
  reseeded.seed = plan.seed + 1;
  std::size_t differs = 0;
  for (SiteId i = 0; i < 10; ++i) {
    for (SiteId j = 0; j < 10; ++j) {
      plan.probe_loss_probability = 0.35;
      if (plan.probe_lost(0, i, j) != reseeded.probe_lost(0, i, j)) ++differs;
    }
  }
  EXPECT_GT(differs, 0u);
}

TEST(FaultPlanTest, ValidateRejectsMalformedWindows) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 5.0, 5.0});  // empty window
  EXPECT_THROW(plan.validate(), ContractViolation);

  plan.outages.clear();
  plan.outages.push_back(OutageWindow{0, 0.0, kInf});  // would hang the sim
  EXPECT_THROW(plan.validate(), ContractViolation);

  plan.outages.clear();
  plan.degradations.push_back(LinkDegradation{0, 0.0, 1.0, 1.5});
  EXPECT_THROW(plan.validate(), ContractViolation);

  plan.degradations.clear();
  plan.probe_loss_probability = -0.1;
  EXPECT_THROW(plan.validate(), ContractViolation);
}

// ---------------------------------------------------------------------------
// Spec parser.

TEST(FaultParseTest, ParsesFullGrammar) {
  const FaultPlan plan = parse_fault_plan(
      "outage:site=6,start=0,end=15,phases=probe+move;"
      "degrade:site=3,start=1,end=4,factor=0.5,link=up;"
      "kill:time=2,src=1;"
      "probe-loss:p=0.3,seed=99;"
      "retry:max=3,base=0.1,cap=2,mode=restart;"
      "lp-failure");
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].site, 6u);
  EXPECT_DOUBLE_EQ(plan.outages[0].start, 0.0);
  EXPECT_DOUBLE_EQ(plan.outages[0].end, 15.0);
  EXPECT_EQ(plan.outages[0].phases, kPhaseProbe | kPhaseMovement);
  ASSERT_EQ(plan.degradations.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.degradations[0].factor, 0.5);
  EXPECT_TRUE(plan.degradations[0].uplink);
  EXPECT_FALSE(plan.degradations[0].downlink);
  EXPECT_EQ(plan.degradations[0].phases, kPhaseAll);
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.kills[0].time, 2.0);
  EXPECT_EQ(plan.kills[0].src, 1u);
  EXPECT_EQ(plan.kills[0].dst, kAnySite);
  EXPECT_DOUBLE_EQ(plan.probe_loss_probability, 0.3);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.retry.max_retries, 3u);
  EXPECT_DOUBLE_EQ(plan.retry.backoff_base_seconds, 0.1);
  EXPECT_DOUBLE_EQ(plan.retry.backoff_cap_seconds, 2.0);
  EXPECT_FALSE(plan.retry.resume);
  EXPECT_TRUE(plan.lp_failure);
}

TEST(FaultParseTest, EmptySpecIsInert) {
  EXPECT_TRUE(parse_fault_plan("").empty());
}

TEST(FaultParseTest, ParsesCrashAndStorageClauses) {
  const FaultPlan plan = parse_fault_plan(
      "crash:phase=movement_plan;"
      "torn-write:file=3,fraction=0.25;"
      "bit-flip:file=0,bit=13");
  EXPECT_EQ(plan.crash_after_phase, "movement_plan");
  ASSERT_EQ(plan.storage_faults.size(), 2u);
  EXPECT_EQ(plan.storage_faults[0].kind, StorageFault::Kind::kTornWrite);
  EXPECT_EQ(plan.storage_faults[0].file_index, 3u);
  EXPECT_DOUBLE_EQ(plan.storage_faults[0].fraction, 0.25);
  EXPECT_EQ(plan.storage_faults[1].kind, StorageFault::Kind::kBitFlip);
  EXPECT_EQ(plan.storage_faults[1].file_index, 0u);
  EXPECT_EQ(plan.storage_faults[1].bit, 13u);
  EXPECT_FALSE(plan.empty());
  // Crash and storage faults live off the data plane: WAN simulation,
  // probes, and the LP all take the pristine path, so the lag-deadline
  // auto-enforcement must not flip on (byte-identity across recovery).
  EXPECT_TRUE(plan.data_plane_quiet());
}

TEST(FaultParseTest, DataPlaneFaultsAreNotQuiet) {
  EXPECT_FALSE(parse_fault_plan("probe-loss:p=0.3").data_plane_quiet());
  EXPECT_FALSE(
      parse_fault_plan("outage:site=1,start=0,end=2").data_plane_quiet());
  EXPECT_FALSE(parse_fault_plan("lp-failure").data_plane_quiet());
}

TEST(FaultParseTest, RejectsMalformedCrashAndStorageClauses) {
  // Required keys.
  EXPECT_THROW(parse_fault_plan("crash"), ContractViolation);
  EXPECT_THROW(parse_fault_plan("crash:phase="), ContractViolation);
  EXPECT_THROW(parse_fault_plan("torn-write:fraction=0.5"),
               ContractViolation);
  EXPECT_THROW(parse_fault_plan("bit-flip:bit=2"), ContractViolation);
  // Only one crash point per plan.
  EXPECT_THROW(parse_fault_plan("crash:phase=a;crash:phase=b"),
               ContractViolation);
  // Fraction range is [0, 1): 1.0 would keep the whole file intact.
  EXPECT_THROW(parse_fault_plan("torn-write:file=0,fraction=1.0"),
               ContractViolation);
  EXPECT_THROW(parse_fault_plan("torn-write:file=0,fraction=-0.1"),
               ContractViolation);
  // Unknown keys.
  EXPECT_THROW(parse_fault_plan("crash:phase=x,wat=1"), ContractViolation);
  EXPECT_THROW(parse_fault_plan("bit-flip:file=0,wat=1"), ContractViolation);
}

TEST(FaultParseTest, RejectsMalformedClauses) {
  // Unknown clause type.
  EXPECT_THROW(parse_fault_plan("nonsense"), ContractViolation);
  // Missing required key.
  EXPECT_THROW(parse_fault_plan("outage:site=1,end=4"), ContractViolation);
  // Unknown key.
  EXPECT_THROW(parse_fault_plan("kill:time=2,wat=3"), ContractViolation);
  // Empty window.
  EXPECT_THROW(parse_fault_plan("outage:site=1,start=5,end=5"),
               ContractViolation);
  // Factor and probability ranges.
  EXPECT_THROW(parse_fault_plan("degrade:site=0,start=0,end=1,factor=1.5"),
               ContractViolation);
  EXPECT_THROW(parse_fault_plan("probe-loss:p=2"), ContractViolation);
  // Bad enumerations.
  EXPECT_THROW(
      parse_fault_plan("degrade:site=0,start=0,end=1,factor=0.5,link=sideways"),
      ContractViolation);
  EXPECT_THROW(parse_fault_plan("retry:max=1,base=0.1,mode=panic"),
               ContractViolation);
  EXPECT_THROW(parse_fault_plan("outage:site=1,start=0,end=2,phases=lunch"),
               ContractViolation);
  // Not a number / trailing junk.
  EXPECT_THROW(parse_fault_plan("kill:time=soon"), ContractViolation);
  EXPECT_THROW(parse_fault_plan("kill:time=2x"), ContractViolation);
  // lp-failure takes no body.
  EXPECT_THROW(parse_fault_plan("lp-failure:x=1"), ContractViolation);
}

TEST(FaultParseTest, IntegerFieldsMustBeWholeNumbers) {
  // Sites, seeds, retry counts, file indices and bits are digits only,
  // in 64-bit range; the error names the clause.
  const std::vector<std::string> bad{"1e30", "-1", "nan", "1.5", "-3",
                                     "+1",   " 1", "1x",  "",
                                     "18446744073709551616"};
  const std::vector<std::string> clauses{
      "outage:site=@,start=0,end=5",
      "degrade:site=@,start=0,end=1,factor=0.5",
      "slow-site:site=@,start=0,end=1",
      "kill:time=2,src=@",
      "kill:time=2,dst=@",
      "probe-loss:p=0.3,seed=@",
      "retry:max=@,base=0.1",
      "torn-write:file=@",
      "bit-flip:file=@",
      "bit-flip:file=0,bit=@"};
  for (const std::string& clause : clauses) {
    for (const std::string& value : bad) {
      std::string spec = clause;
      spec.replace(spec.find('@'), 1, value);
      try {
        parse_fault_plan(spec);
        ADD_FAILURE() << "accepted '" << spec << "'";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("'" + spec + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  const FaultPlan plan = parse_fault_plan(
      "outage:site=18446744073709551615,start=0,end=5;retry:max=0,base=0.1");
  EXPECT_EQ(plan.outages[0].site, std::numeric_limits<SiteId>::max());
  EXPECT_EQ(plan.retry.max_retries, 0u);
}

// ---------------------------------------------------------------------------
// Faulted flow simulation.

TEST(FaultSimTest, EmptyPlanMatchesPristineSimulatorExactly) {
  const WanTopology topo = make_paper_topology(1e6);
  std::vector<Flow> flows;
  for (SiteId i = 0; i < topo.site_count(); ++i) {
    for (SiteId j = 0; j < topo.site_count(); ++j) {
      flows.push_back(Flow{i, j, 5e5, static_cast<double>(i) * 0.25});
    }
  }
  const auto pristine = simulate_flows(topo, flows);
  const auto faulted = simulate_flows_with_faults(topo, flows, FaultPlan{});
  ASSERT_EQ(faulted.flows.size(), pristine.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_DOUBLE_EQ(faulted.flows[f].finish_time, pristine[f].finish_time);
    EXPECT_DOUBLE_EQ(faulted.flows[f].mean_rate, pristine[f].mean_rate);
    EXPECT_DOUBLE_EQ(faulted.flows[f].delivered_bytes, flows[f].bytes);
    EXPECT_TRUE(faulted.flows[f].completed);
    EXPECT_EQ(faulted.flows[f].retries, 0u);
  }
  EXPECT_EQ(faulted.interruptions, 0u);
  EXPECT_EQ(faulted.retries, 0u);
  EXPECT_EQ(faulted.failures, 0u);
}

TEST(FaultSimTest, FactorOneDegradationIsBitIdentical) {
  // A factor-1.0 multiply is exact, so a "degradation" that changes
  // nothing must reproduce the pristine trajectory bit for bit.
  const WanTopology topo = WanTopology({Site{"A", 10, 1000},
                                        Site{"B", 1000, 1000},
                                        Site{"C", 1000, 1000}});
  const std::vector<Flow> flows{{0, 1, 25, 0}, {0, 2, 75, 0}, {1, 2, 40, 0.5}};
  FaultPlan plan;
  plan.degradations.push_back(LinkDegradation{0, 0.0, 1e6, 1.0});
  const auto pristine = simulate_flows(topo, flows);
  const auto faulted = simulate_flows_with_faults(topo, flows, plan);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_DOUBLE_EQ(faulted.flows[f].finish_time, pristine[f].finish_time);
    EXPECT_DOUBLE_EQ(faulted.flows[f].mean_rate, pristine[f].mean_rate);
  }
}

TEST(FaultSimTest, OutageDelaysFlowUntilRecovery) {
  // Receiver dark in [0, 5): the flow is interrupted at activation and
  // becomes eligible at recovery, then runs at the full 10 B/s.
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{1, 0.0, 5.0});
  const auto report =
      simulate_flows_with_faults(two_sites(), {{0, 1, 50, 0}}, plan);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 10.0);
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_bytes, 50.0);
  EXPECT_TRUE(report.flows[0].completed);
  EXPECT_EQ(report.flows[0].retries, 1u);
  EXPECT_EQ(report.interruptions, 1u);
  EXPECT_DOUBLE_EQ(report.makespan, 10.0);
}

TEST(FaultSimTest, DegradationSlowsButDoesNotInterrupt) {
  // Sender uplink at 50% in [0, 2): 10 bytes land in the window, the
  // remaining 40 at full rate. No retry is consumed.
  FaultPlan plan;
  plan.degradations.push_back(LinkDegradation{0, 0.0, 2.0, 0.5,
                                              /*uplink=*/true,
                                              /*downlink=*/false});
  const auto report =
      simulate_flows_with_faults(two_sites(), {{0, 1, 50, 0}}, plan);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 6.0);
  EXPECT_EQ(report.flows[0].retries, 0u);
  EXPECT_EQ(report.interruptions, 0u);
}

TEST(FaultSimTest, ZeroFactorStallsWithoutConsumingRetries) {
  // factor=0 parks the link (flows idle at rate 0) — unlike an outage it
  // is not a connection reset, so no retry budget is spent.
  FaultPlan plan;
  plan.degradations.push_back(LinkDegradation{0, 0.0, 3.0, 0.0});
  const auto report =
      simulate_flows_with_faults(two_sites(), {{0, 1, 50, 0}}, plan);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 8.0);
  EXPECT_EQ(report.flows[0].retries, 0u);
}

TEST(FaultSimTest, KillTriggersBackoffThenResume) {
  // Killed at t=2 with 20 bytes delivered; backoff 0.5s, then the
  // remaining 30 bytes finish: 2 + 0.5 + 3 = 5.5.
  FaultPlan plan;
  plan.kills.push_back(FlowKill{2.0});
  const auto report =
      simulate_flows_with_faults(two_sites(), {{0, 1, 50, 0}}, plan);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 5.5);
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_bytes, 50.0);
  EXPECT_EQ(report.flows[0].retries, 1u);
  EXPECT_EQ(report.retries, 1u);
}

TEST(FaultSimTest, RestartModeLosesInFlightProgress) {
  // Same kill, but restart semantics re-send the full 50 bytes:
  // 2 + 0.5 + 5 = 7.5.
  FaultPlan plan;
  plan.kills.push_back(FlowKill{2.0});
  plan.retry.resume = false;
  const auto report =
      simulate_flows_with_faults(two_sites(), {{0, 1, 50, 0}}, plan);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 7.5);
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_bytes, 50.0);
}

TEST(FaultSimTest, KillMatchesEndpointsSelectively) {
  FaultPlan plan;
  plan.kills.push_back(FlowKill{2.0, /*src=*/0, /*dst=*/1});
  const auto report = simulate_flows_with_faults(
      WanTopology({Site{"A", 10, 10}, Site{"B", 10, 10}, Site{"C", 10, 10}}),
      {{0, 1, 50, 0}, {2, 1, 50, 0}}, plan);
  EXPECT_EQ(report.flows[0].retries, 1u);   // matched
  EXPECT_EQ(report.flows[1].retries, 0u);   // different src, spared
  EXPECT_EQ(report.interruptions, 1u);
}

TEST(FaultSimTest, ExhaustedRetriesRecordFailureNotHang) {
  // Three outage windows hit the flow; max_retries=1 means the third
  // interruption abandons it with the 5 bytes delivered between windows.
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{1, 0.0, 10.0});
  plan.outages.push_back(OutageWindow{1, 10.5, 50.0});
  plan.outages.push_back(OutageWindow{1, 51.0, 90.0});
  plan.retry.max_retries = 1;
  plan.retry.backoff_base_seconds = 0.25;
  const auto report =
      simulate_flows_with_faults(two_sites(), {{0, 1, 100, 0}}, plan);
  EXPECT_FALSE(report.flows[0].completed);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 10.5);  // abandonment time
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_bytes, 5.0);
  EXPECT_EQ(report.flows[0].retries, 1u);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.interruptions, 2u);
  EXPECT_DOUBLE_EQ(report.makespan, 10.5);
}

TEST(FaultSimTest, DeadlineSnapshotsDeliveredBytes) {
  // The deadline never changes the dynamics — it only records how much
  // had landed by then: 40 of 100 bytes at t=4, full delivery at t=10.
  const auto report = simulate_flows_with_faults(
      two_sites(), {{0, 1, 100, 0}}, FaultPlan{}, /*deadline=*/4.0);
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_by_deadline, 40.0);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 10.0);
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_bytes, 100.0);
  EXPECT_TRUE(report.flows[0].completed);
}

TEST(FaultSimTest, RestartModeCountsNothingUntilCompletion) {
  // Under restart semantics an attempt that has not completed by the
  // deadline has delivered nothing durable.
  FaultPlan plan;
  plan.retry.resume = false;
  const auto report = simulate_flows_with_faults(
      two_sites(), {{0, 1, 100, 0}, {0, 1, 10, 0}}, plan, /*deadline=*/4.0);
  EXPECT_DOUBLE_EQ(report.flows[0].delivered_by_deadline, 0.0);
  // The small flow shares the uplink (5 B/s each), completes at t=2 —
  // before the deadline, so its bytes count in full.
  EXPECT_DOUBLE_EQ(report.flows[1].delivered_by_deadline, 10.0);
}

// ---------------------------------------------------------------------------
// Slow-site windows and the churn runner's clock re-basing.

TEST(FaultPlanTest, ComputeSlowdownTakesMaxOfOverlappingWindows) {
  FaultPlan plan;
  plan.slowdowns.push_back(SiteSlowdown{1, 0.0, 10.0, 2.0});
  plan.slowdowns.push_back(SiteSlowdown{1, 5.0, 20.0, 6.0});
  EXPECT_DOUBLE_EQ(plan.compute_slowdown(1, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(plan.compute_slowdown(1, 7.0), 6.0);  // overlap: max
  EXPECT_DOUBLE_EQ(plan.compute_slowdown(1, 15.0), 6.0);
  EXPECT_DOUBLE_EQ(plan.compute_slowdown(1, 20.0), 1.0);  // half-open
  EXPECT_DOUBLE_EQ(plan.compute_slowdown(0, 7.0), 1.0);  // other site
  EXPECT_FALSE(plan.data_plane_quiet());
  // Slowdowns stretch compute, not links: the WAN fast path stays valid.
  EXPECT_TRUE(plan.wan_quiet());
}

TEST(FaultPlanTest, ShiftedByRebasesWindowsOntoALaterClock) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 5.0, 15.0});   // straddles 10
  plan.outages.push_back(OutageWindow{1, 0.0, 8.0});    // entirely past
  plan.slowdowns.push_back(SiteSlowdown{2, 12.0, 30.0, 4.0});
  plan.kills.push_back(FlowKill{9.0});   // in the past: dropped
  plan.kills.push_back(FlowKill{25.0});  // survives, shifted
  plan.probe_loss_probability = 0.25;
  plan.crash_after_phase = "placement";

  const FaultPlan shifted = plan.shifted_by(10.0);
  // The straddling window is clamped to start at the new origin.
  ASSERT_EQ(shifted.outages.size(), 1u);
  EXPECT_EQ(shifted.outages[0].site, 0u);
  EXPECT_DOUBLE_EQ(shifted.outages[0].start, 0.0);
  EXPECT_DOUBLE_EQ(shifted.outages[0].end, 5.0);
  ASSERT_EQ(shifted.slowdowns.size(), 1u);
  EXPECT_DOUBLE_EQ(shifted.slowdowns[0].start, 2.0);
  EXPECT_DOUBLE_EQ(shifted.slowdowns[0].end, 20.0);
  ASSERT_EQ(shifted.kills.size(), 1u);
  EXPECT_DOUBLE_EQ(shifted.kills[0].time, 15.0);
  // Untimed faults carry over; process faults belong to the whole run
  // and are dropped like restricted_to does.
  EXPECT_DOUBLE_EQ(shifted.probe_loss_probability, 0.25);
  EXPECT_TRUE(shifted.crash_after_phase.empty());
  // Shifting by zero preserves every timed event.
  EXPECT_EQ(plan.shifted_by(0.0).event_count(), plan.event_count());
}

TEST(FaultPlanTest, RestrictedToFiltersSlowdownPhases) {
  FaultPlan plan;
  plan.slowdowns.push_back(SiteSlowdown{0, 0.0, 10.0, 3.0, kPhaseQuery});
  plan.slowdowns.push_back(SiteSlowdown{1, 0.0, 10.0, 2.0, kPhaseProbe});
  const FaultPlan query = plan.restricted_to(kPhaseQuery);
  ASSERT_EQ(query.slowdowns.size(), 1u);
  EXPECT_EQ(query.slowdowns[0].site, 0u);
}

TEST(FaultPlanTest, ValidateRejectsMalformedSlowdowns) {
  FaultPlan zero_length;
  zero_length.slowdowns.push_back(SiteSlowdown{0, 5.0, 5.0, 2.0});
  EXPECT_THROW(zero_length.validate(), ContractViolation);
  FaultPlan sub_unit;
  sub_unit.slowdowns.push_back(SiteSlowdown{0, 0.0, 5.0, 0.5});
  EXPECT_THROW(sub_unit.validate(), ContractViolation);
  FaultPlan fine;
  fine.slowdowns.push_back(SiteSlowdown{0, 0.0, 5.0, 1.0});
  EXPECT_NO_THROW(fine.validate());
}

TEST(FaultParseTest, ParsesSlowSiteClause) {
  const FaultPlan plan = parse_fault_plan(
      "slow-site:site=2,start=250,end=520,factor=6,phases=query");
  ASSERT_EQ(plan.slowdowns.size(), 1u);
  EXPECT_EQ(plan.slowdowns[0].site, 2u);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].start, 250.0);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].end, 520.0);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].factor, 6.0);
  EXPECT_EQ(plan.slowdowns[0].phases, kPhaseQuery);
  // The factor defaults when omitted.
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow-site:site=0,start=0,end=1")
                       .slowdowns[0]
                       .factor,
                   4.0);
}

TEST(FaultParseTest, RejectsMalformedSlowSiteClauses) {
  // Unknown keys, missing windows, zero-length windows, and sub-unit
  // factors all name the offending clause instead of crashing.
  EXPECT_THROW(parse_fault_plan("slow-site:site=0,start=0,end=1,wat=3"),
               ContractViolation);
  EXPECT_THROW(parse_fault_plan("slow-site:site=0,end=1"), ContractViolation);
  EXPECT_THROW(parse_fault_plan("slow-site:site=0,start=5,end=5"),
               ContractViolation);
  EXPECT_THROW(parse_fault_plan("slow-site:site=0,start=0,end=1,factor=0.5"),
               ContractViolation);
}

TEST(FaultParseTest, OverlappingOutageWindowsParseAndCompose) {
  // Overlap is legal — darkness is the union, recovery chases the
  // furthest reachable end.
  const FaultPlan plan = parse_fault_plan(
      "outage:site=3,start=0,end=10;outage:site=3,start=8,end=20");
  EXPECT_NO_THROW(plan.validate());
  EXPECT_TRUE(plan.site_dark_at(3, 9.0));
  EXPECT_DOUBLE_EQ(plan.recovery_time(3, 1.0), 20.0);
}

TEST(FaultSimTest, LocalAndEmptyFlowsBypassTheWan) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 0.0, 100.0});
  const auto report = simulate_flows_with_faults(
      two_sites(), {{0, 0, 50, 3.0}, {0, 1, 0.0, 2.0}}, plan);
  EXPECT_DOUBLE_EQ(report.flows[0].finish_time, 3.0);
  EXPECT_DOUBLE_EQ(report.flows[1].finish_time, 2.0);
  EXPECT_EQ(report.interruptions, 0u);
}

}  // namespace
}  // namespace bohr::net
