// Whole-flow-scan max-min allocator and event loop: the differential
// oracle for the per-link progressive filling behind
// net::simulate_flows_with_faults, and the allocator the max-min
// property tests check.
//
// Each filling round rescans every flow twice (once to count unfixed
// flows and sum fixed load per link, once to freeze), and each event
// copies its active flows. That is O(rounds x flows) per event, but the
// arithmetic is the reference: the simulator must match it bit for bit.
#pragma once

#include <limits>
#include <vector>

#include "net/faults.h"
#include "net/topology.h"
#include "net/transfer.h"

namespace bohr::net::oracle {

/// Max-min fair rates for a set of concurrently active flows, index-
/// aligned with `flows`. Intra-site flows (src == dst) do not cross the
/// WAN and get rate 0. Every flow's endpoints must be sites of `topo`.
std::vector<double> max_min_rates(const WanTopology& topo,
                                  const std::vector<Flow>& flows);

/// Same contract as net::simulate_flows_with_faults.
FaultSimReport simulate_flows_with_faults(
    const WanTopology& topo, std::vector<Flow> flows, const FaultPlan& plan,
    double deadline = std::numeric_limits<double>::infinity());

}  // namespace bohr::net::oracle
