// Flow-level WAN transfer model with max-min fair bandwidth sharing.
//
// Shuffle is all-to-all: every site uploads to every other site at once,
// so flows contend on the source uplink and the destination downlink.
// We model each flow as a fluid through exactly two links (src uplink,
// dst downlink) and allocate rates by progressive filling (classic
// max-min fairness), recomputing at every flow arrival/completion.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace bohr::net {

/// One WAN transfer: `bytes` from `src` to `dst`, entering the network at
/// `start_time` (simulated seconds).
struct Flow {
  SiteId src = 0;
  SiteId dst = 0;
  double bytes = 0.0;
  double start_time = 0.0;
};

/// Completion record for a flow, index-aligned with the input vector.
struct FlowResult {
  double finish_time = 0.0;
  /// Mean throughput actually achieved (bytes/sec); 0 for empty flows.
  double mean_rate = 0.0;
};

/// Fluid simulation of all flows to completion. Deterministic.
/// Zero-byte or intra-site flows complete instantly at their start time.
std::vector<FlowResult> simulate_flows(const WanTopology& topo,
                                       std::vector<Flow> flows);

}  // namespace bohr::net
