// Worker-machine compute model: executors, partition-to-executor
// assignment, and the local map/combine stage.
//
// Per site we model one worker machine with E executors (Table 4 varies
// E). Each executor processes its assigned RDD partitions (map +
// per-partition combine), then merges its partitions' outputs; executors
// finally exchange records for keys that span executors. Assigning
// similar partitions to the same executor (§6) shrinks both the merge
// inputs and the cross-executor key exchange — that is the Bohr-RDD
// speedup — while leaving shuffle volume per partition untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "engine/record.h"
#include "similarity/dimsum.h"

namespace bohr::engine {

struct MachineConfig {
  std::size_t executors = 4;
  /// Rates are in PHYSICAL records/sec; synthetic rows are scaled by
  /// record_scale before applying them. Compute is deliberately fast —
  /// the paper assumes sites have abundant compute (§5) and QCT is
  /// dominated by WAN shuffle — while cross-executor exchange is slow
  /// (IPC + serialization), which is the cost Bohr-RDD removes.
  double map_records_per_sec = 2.0e9;
  /// Executor-local aggregation cost per DISTINCT key held by the
  /// executor (hash-table and spill pressure): co-locating similar
  /// partitions shrinks each executor's distinct-key set, which is
  /// exactly the Bohr-RDD speedup (§6) — shuffle volume is untouched.
  double merge_records_per_sec = 5.0e7;
  /// Throughput of RDD similarity checking (signature pass + pair
  /// estimates + k-means), in ops/sec.
  double rdd_check_ops_per_sec = 1.5e9;
  /// Physical records represented by one synthetic row (a workload row
  /// models a fixed-size block of the paper's 40GB/site datasets).
  double record_scale = 1.0;
  /// Map-side combining (ablation switch; the entire similarity benefit
  /// rides on combiners, §1).
  bool combiner_enabled = true;
  /// Straggler model (§9's related work: Mantri/Dolly/GRASS operate at
  /// this layer): each executor independently runs `slowdown`x slower
  /// with probability `probability`.
  double straggler_probability = 0.0;
  double straggler_slowdown = 4.0;
  /// Speculative execution: a straggling executor's work is re-launched
  /// elsewhere, capping its effective time at `speculation_cap` times the
  /// median executor's time (plus the detection delay baked into the cap).
  bool speculative_execution = false;
  double speculation_cap = 1.5;

  /// Throws ContractViolation with a field-naming message when a value
  /// is out of range (probability outside [0,1], speculation_cap < 1,
  /// non-positive rates, ...). Run by every local-stage and job entry
  /// point, so a bad config fails loudly instead of silently skewing
  /// the simulation.
  void validate() const;
};

enum class ExecutorAssignment {
  RoundRobin,        ///< Spark default: arbitrary partition placement
  SimilarityKMeans,  ///< Bohr-RDD: DIMSUM + k-means clustering (§6)
};

struct LocalStageResult {
  /// Simulated seconds until every executor finished map+combine+merge
  /// and the cross-executor exchange completed.
  double stage_seconds = 0.0;
  /// Records handed to the shuffle: each partition's combined record
  /// count (its distinct keys; its raw records with the combiner off),
  /// summed. Spark combines per map task, not machine-wide.
  std::size_t shuffle_records = 0;
  /// Records crossing executors during local aggregation.
  std::size_t exchanged_records = 0;
  /// Simulated cost of RDD similarity checking (0 unless k-means mode).
  double rdd_check_seconds = 0.0;
  std::vector<std::size_t> executor_of_partition;
  /// Straggler bookkeeping (0 unless straggler injection is enabled).
  std::size_t stragglers = 0;
  std::size_t speculations = 0;
};

/// Runs the local stage over `partitions` with `compute_multiplier`
/// scaling per-record map cost (UDFs cost more than scans).
LocalStageResult run_local_stage(
    const std::vector<RecordStream>& partitions, const MachineConfig& config,
    ExecutorAssignment assignment, double compute_multiplier,
    const similarity::DimsumParams& dimsum_params, bohr::Rng& rng);

}  // namespace bohr::engine
