// Conservation properties of the (faulted) fluid simulator: bytes are
// neither created nor destroyed, and no transfer beats the ideal
// single-flow time — across capacity-change epochs, outages, kills,
// retry/backoff cycles, and deadline snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/faults.h"
#include "net/transfer.h"

namespace bohr::net {
namespace {

std::vector<Flow> all_pairs_flows(const WanTopology& topo, double bytes) {
  std::vector<Flow> flows;
  for (SiteId i = 0; i < topo.site_count(); ++i) {
    for (SiteId j = 0; j < topo.site_count(); ++j) {
      if (i == j) continue;
      const double start =
          static_cast<double>(i * topo.site_count() + j) * 0.05;
      flows.push_back(Flow{i, j, bytes, start});
    }
  }
  return flows;
}

/// Time for a flow's bytes to cross its link pair alone on an idle WAN.
double ideal_seconds(const WanTopology& topo, const Flow& flow) {
  if (flow.src == flow.dst || flow.bytes == 0.0) return 0.0;
  return flow.bytes / std::min(topo.uplink(flow.src), topo.downlink(flow.dst));
}

/// Shared invariant pack for a faulted run under resume semantics.
void check_invariants(const WanTopology& topo, const std::vector<Flow>& flows,
                      const FaultSimReport& report, bool resume) {
  ASSERT_EQ(report.flows.size(), flows.size());
  double max_finish = 0.0;
  std::size_t failures = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const FaultyFlowResult& r = report.flows[f];
    SCOPED_TRACE("flow " + std::to_string(f));
    EXPECT_TRUE(std::isfinite(r.finish_time));
    EXPECT_GE(r.finish_time, flows[f].start_time);
    // Bytes conservation: delivery never exceeds the request, and the
    // by-deadline snapshot never exceeds the final delivery.
    EXPECT_LE(r.delivered_bytes, flows[f].bytes * (1 + 1e-9) + 1e-6);
    EXPECT_LE(r.delivered_by_deadline, r.delivered_bytes + 1e-6);
    EXPECT_GE(r.delivered_by_deadline, 0.0);
    if (r.completed) {
      EXPECT_DOUBLE_EQ(r.delivered_bytes, flows[f].bytes);
      // Never faster than an empty WAN at full nominal capacity.
      const double ideal = ideal_seconds(topo, flows[f]);
      EXPECT_GE(r.finish_time + 1e-9, flows[f].start_time + ideal);
      // mean_rate is defined over wall duration including stalls, so it
      // is bounded by the nominal bottleneck rate.
      const double bottleneck =
          std::min(topo.uplink(flows[f].src), topo.downlink(flows[f].dst));
      EXPECT_LE(r.mean_rate, bottleneck * (1 + 1e-9));
    } else {
      ++failures;
      if (!resume) {
        EXPECT_DOUBLE_EQ(r.delivered_bytes, 0.0);
      }
    }
    max_finish = std::max(max_finish, r.finish_time);
  }
  EXPECT_EQ(report.failures, failures);
  EXPECT_DOUBLE_EQ(report.makespan, max_finish);
  // Retries are re-attempts; every retry stems from an interruption.
  EXPECT_LE(report.retries, report.interruptions);
  EXPECT_EQ(report.interruptions, report.retries + report.failures);
}

TEST(FlowConservationTest, PristineSimulatorConservesBytes) {
  const WanTopology topo = make_paper_topology(1e6);
  const auto flows = all_pairs_flows(topo, 5e5);
  const auto results = simulate_flows(topo, flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    // mean_rate * duration reconstructs exactly the bytes sent.
    const double duration = results[f].finish_time - flows[f].start_time;
    EXPECT_NEAR(results[f].mean_rate * duration, flows[f].bytes,
                flows[f].bytes * 1e-9);
    const double ideal = ideal_seconds(topo, flows[f]);
    EXPECT_GE(duration + 1e-9, ideal);
  }
}

TEST(FlowConservationTest, HoldsAcrossCapacityEpochs) {
  // Degradations carve the timeline into epochs with different rate
  // allocations; total delivery must still match the request exactly.
  const WanTopology topo = make_paper_topology(1e6);
  FaultPlan plan;
  plan.degradations.push_back(LinkDegradation{2, 1.0, 20.0, 0.4});
  plan.degradations.push_back(
      LinkDegradation{7, 0.5, 6.0, 0.25, /*uplink=*/false, /*downlink=*/true});
  const auto flows = all_pairs_flows(topo, 5e5);
  const auto report = simulate_flows_with_faults(topo, flows, plan);
  check_invariants(topo, flows, report, /*resume=*/true);
  EXPECT_EQ(report.failures, 0u);  // degradations never abandon flows
  for (const auto& r : report.flows) EXPECT_TRUE(r.completed);
}

TEST(FlowConservationTest, HoldsThroughKillRetryCycles) {
  const WanTopology topo = make_paper_topology(1e6);
  FaultPlan plan;
  plan.kills.push_back(FlowKill{2.0});
  plan.kills.push_back(FlowKill{4.0, /*src=*/3});
  plan.retry.backoff_base_seconds = 0.3;
  const auto flows = all_pairs_flows(topo, 5e5);
  const auto report = simulate_flows_with_faults(topo, flows, plan);
  check_invariants(topo, flows, report, /*resume=*/true);
  EXPECT_GT(report.retries, 0u);
  for (const auto& r : report.flows) EXPECT_TRUE(r.completed);
}

TEST(FlowConservationTest, HoldsUnderCombinedFaultsWithDeadline) {
  const WanTopology topo = make_paper_topology(1e6);
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{5, 2.0, 8.0});
  plan.degradations.push_back(LinkDegradation{2, 1.0, 20.0, 0.4});
  plan.kills.push_back(FlowKill{4.0});
  plan.retry.max_retries = 10;
  plan.retry.backoff_base_seconds = 0.3;
  const auto flows = all_pairs_flows(topo, 5e5);
  const auto report =
      simulate_flows_with_faults(topo, flows, plan, /*deadline=*/15.0);
  check_invariants(topo, flows, report, /*resume=*/true);
}

TEST(FlowConservationTest, HoldsUnderRestartSemantics) {
  const WanTopology topo = make_paper_topology(1e6);
  FaultPlan plan;
  plan.kills.push_back(FlowKill{1.5});
  plan.retry.resume = false;
  plan.retry.backoff_base_seconds = 0.2;
  const auto flows = all_pairs_flows(topo, 2e5);
  const auto report =
      simulate_flows_with_faults(topo, flows, plan, /*deadline=*/10.0);
  check_invariants(topo, flows, report, /*resume=*/false);
  for (const auto& r : report.flows) {
    // Restart mode: the deadline snapshot is all-or-nothing per flow.
    if (r.delivered_by_deadline > 0.0) {
      EXPECT_DOUBLE_EQ(r.delivered_by_deadline, r.delivered_bytes);
    }
  }
}

TEST(FlowConservationTest, AbandonedFlowsReportPartialDelivery) {
  // An aggressive plan that exhausts the retry budget must still account
  // for every byte that landed before abandonment (resume mode).
  const WanTopology topo = make_paper_topology(1e6);
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 0.0, 10.0});
  plan.outages.push_back(OutageWindow{0, 10.2, 30.0});
  plan.outages.push_back(OutageWindow{0, 30.2, 60.0});
  plan.retry.max_retries = 1;
  plan.retry.backoff_base_seconds = 0.1;
  std::vector<Flow> flows{{0, 1, 1e7, 0.0}, {2, 3, 1e6, 0.0}};
  const auto report = simulate_flows_with_faults(topo, flows, plan);
  check_invariants(topo, flows, report, /*resume=*/true);
  EXPECT_FALSE(report.flows[0].completed);
  EXPECT_GT(report.flows[0].delivered_bytes, 0.0);
  EXPECT_LT(report.flows[0].delivered_bytes, flows[0].bytes);
  EXPECT_TRUE(report.flows[1].completed);  // uninvolved flow unharmed
}

}  // namespace
}  // namespace bohr::net
