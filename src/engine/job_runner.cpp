#include "engine/job_runner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "net/transfer.h"

namespace bohr::engine {

bool consumes_rng(const JobConfig& config) {
  return config.executor_assignment != ExecutorAssignment::SimilarityKMeans ||
         config.machine.straggler_probability != 0.0;
}

JobResult run_job(const net::WanTopology& topo,
                  const std::vector<RecordStream>& site_inputs,
                  const std::vector<double>& reduce_fractions,
                  const QuerySpec& spec, const JobConfig& config,
                  bohr::Rng& rng) {
  const std::size_t n = topo.site_count();
  BOHR_EXPECTS(site_inputs.size() == n);
  BOHR_EXPECTS(reduce_fractions.size() == n);
  config.machine.validate();
  // Bucket-granular mode: ownership counts define the fractions (the
  // caller's vector is advisory there — migration may have moved
  // buckets since placement ran).
  std::vector<double> fractions = reduce_fractions;
  if (config.reduce_buckets != nullptr) {
    BOHR_EXPECTS(config.reduce_buckets->site_count == n);
    BOHR_EXPECTS(config.reduce_buckets->bucket_count() > 0);
    fractions = config.reduce_buckets->to_fractions();
  }
  double r_total = 0.0;
  for (const double r : fractions) {
    BOHR_EXPECTS(r >= -1e-9);
    r_total += r;
  }
  BOHR_EXPECTS(std::abs(r_total - 1.0) < 1e-6);

  JobResult result;
  result.sites.resize(n);

  // ---- Local stage: map + per-partition combine per site ---------------
  for (net::SiteId i = 0; i < n; ++i) {
    result.sites[i].input_records = site_inputs[i].size();
    const auto partitions = make_partitions(
        site_inputs[i], config.partition_records, config.partition_policy);
    LocalStageResult local = run_local_stage(
        partitions, config.machine, config.executor_assignment,
        spec.compute_multiplier, config.dimsum, rng);
    result.sites[i].map_finish_seconds = local.stage_seconds;
    result.sites[i].shuffle_records = local.shuffle_records;
    result.sites[i].shuffle_bytes =
        static_cast<double>(local.shuffle_records) *
        spec.intermediate_bytes_per_record;
    result.sites[i].exchanged_records = local.exchanged_records;
    result.sites[i].rdd_check_seconds = local.rdd_check_seconds;
  }

  // ---- Shuffle: all-to-all flows f_i * r_j, starting at map finish -----
  std::vector<net::Flow> flows;
  flows.reserve(n * n);
  for (net::SiteId i = 0; i < n; ++i) {
    for (net::SiteId j = 0; j < n; ++j) {
      if (i == j) continue;
      const double bytes = result.sites[i].shuffle_bytes * fractions[j];
      if (bytes <= 0.0) continue;
      flows.push_back(net::Flow{i, j, bytes,
                                result.sites[i].map_finish_seconds});
      result.wan_shuffle_bytes += bytes;
    }
  }
  std::vector<double> flow_finish(flows.size(), 0.0);
  if (config.faults != nullptr && !config.faults->wan_quiet()) {
    const net::FaultSimReport faulted =
        net::simulate_flows_with_faults(topo, flows, *config.faults);
    result.shuffle_interruptions = faulted.interruptions;
    result.shuffle_retries = faulted.retries;
    result.shuffle_flows_failed = faulted.failures;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      flow_finish[f] = faulted.flows[f].finish_time;
    }
  } else {
    const auto flow_results = net::simulate_flows(topo, flows);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      flow_finish[f] = flow_results[f].finish_time;
    }
  }

  std::vector<double> shuffle_finish(n, 0.0);
  for (net::SiteId j = 0; j < n; ++j) {
    // A site's own shuffle portion is available at its map finish.
    shuffle_finish[j] = fractions[j] > 0.0
                            ? result.sites[j].map_finish_seconds
                            : 0.0;
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    shuffle_finish[flows[f].dst] =
        std::max(shuffle_finish[flows[f].dst], flow_finish[f]);
  }

  // ---- Reduce ------------------------------------------------------------
  double total_shuffle_records = 0.0;
  for (const auto& s : result.sites) {
    total_shuffle_records += static_cast<double>(s.shuffle_records);
  }
  // Slow-site windows stretch reduce work; evaluated when the site's
  // shuffle input is complete, i.e. when its reduce actually starts.
  std::vector<double> slowdown(n, 1.0);
  if (config.faults != nullptr && !config.faults->slowdowns.empty()) {
    for (net::SiteId j = 0; j < n; ++j) {
      slowdown[j] = config.faults->compute_slowdown(j, shuffle_finish[j]);
      result.max_reduce_slowdown =
          std::max(result.max_reduce_slowdown, slowdown[j]);
    }
  }
  const double deadline = config.reduce_deadline_seconds;
  BOHR_EXPECTS(deadline > 0.0);
  const bool deadlined = std::isfinite(deadline);
  double qct = 0.0;
  double slowest_map = 0.0;
  if (config.reduce_buckets == nullptr) {
    for (net::SiteId j = 0; j < n; ++j) {
      result.sites[j].shuffle_finish_seconds = shuffle_finish[j];
      const double reduce_records = total_shuffle_records *
                                    config.machine.record_scale *
                                    fractions[j];
      const double reduce_t =
          reduce_records / config.reduce_records_per_sec * slowdown[j];
      double finish = shuffle_finish[j] + reduce_t;
      if (deadlined && finish > deadline + 1e-12) {
        // Close the round at the deadline; the share of this site's
        // records not processed by then is dropped (shuffle input that
        // never arrived counts as unprocessed in full).
        const double done =
            reduce_t > 0.0
                ? std::clamp((deadline - shuffle_finish[j]) / reduce_t,
                             0.0, 1.0)
                : 0.0;
        result.reduce_dropped_fraction += fractions[j] * (1.0 - done);
        result.reduce_partial = true;
        finish = deadline;
      }
      result.sites[j].reduce_finish_seconds = finish;
      qct = std::max(qct, finish);
      slowest_map = std::max(slowest_map, result.sites[j].map_finish_seconds);
    }
  } else {
    // Bucket-granular reduce: each site works through its owned buckets
    // in sequence. A bucket whose native completion on a slowed site
    // blows past the cap — bucket_speculation_cap x what the bucket
    // would cost at the slowest HEALTHY site — is re-executed there and
    // finishes at the cap instead (Dolly/Mantri at bucket granularity).
    const ReduceBucketMap& buckets = *config.reduce_buckets;
    const double total_buckets =
        static_cast<double>(buckets.bucket_count());
    const double bucket_t = total_shuffle_records *
                            config.machine.record_scale / total_buckets /
                            config.reduce_records_per_sec;
    std::vector<std::size_t> owned(n, 0);
    for (const std::uint32_t site : buckets.owner) ++owned[site];
    double slowest_healthy_shuffle = -1.0;
    for (net::SiteId j = 0; j < n; ++j) {
      if (slowdown[j] <= 1.0 + 1e-12) {
        slowest_healthy_shuffle =
            std::max(slowest_healthy_shuffle, shuffle_finish[j]);
      }
    }
    const bool can_speculate =
        config.bucket_speculation && slowest_healthy_shuffle >= 0.0;
    const double bucket_cap =
        can_speculate ? config.bucket_speculation_cap *
                            (slowest_healthy_shuffle + bucket_t)
                      : std::numeric_limits<double>::infinity();
    for (net::SiteId j = 0; j < n; ++j) {
      result.sites[j].shuffle_finish_seconds = shuffle_finish[j];
      double t = shuffle_finish[j];
      double finish = t;
      for (std::size_t b = 0; b < owned[j]; ++b) {
        const double native = t + bucket_t * slowdown[j];
        double bucket_finish;
        bool speculated = false;
        if (native > bucket_cap + 1e-12) {
          bucket_finish = bucket_cap;
          speculated = true;
        } else {
          bucket_finish = native;
        }
        if (deadlined && bucket_finish > deadline + 1e-12) {
          // This bucket (and, since buckets run in sequence, every
          // later one at this site) cannot close by the deadline: drop
          // it rather than speculate past the round's end.
          ++result.reduce_buckets_dropped;
          continue;
        }
        if (speculated) {
          finish = std::max(finish, bucket_cap);
          ++result.reduce_speculations;
        } else {
          t = native;
          finish = std::max(finish, t);
        }
      }
      if (deadlined) finish = std::min(finish, deadline);
      result.sites[j].reduce_finish_seconds = finish;
      qct = std::max(qct, finish);
      slowest_map = std::max(slowest_map, result.sites[j].map_finish_seconds);
    }
    if (result.reduce_buckets_dropped > 0) {
      result.reduce_partial = true;
      result.reduce_dropped_fraction =
          static_cast<double>(result.reduce_buckets_dropped) /
          total_buckets;
    }
  }
  result.shuffle_seconds = std::max(0.0, qct - slowest_map);
  result.qct_seconds = qct + config.controller_overhead_seconds;
  return result;
}

}  // namespace bohr::engine
