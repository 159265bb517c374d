// Driver of the repo benchmark: runs one named workload in this process
// and prints one JSON object (peak RSS and one record per rep) on stdout;
// --build-info prints the build facts instead. perfbench/run.py builds it, runs it, checks the
// records and turns them into the benchmark's metrics.
//
// A rep times set-up (first generator call until prepare() returns) and
// the query phase (serve::run_serving, or Controller::run_all_queries
// for the batch workloads), which --passes repeats on the prepared
// controller so its host cost is timed more than once. Layers are timed
// from the outside, by wrapping calls to the simulator's public entry
// points; nothing under
// src/ is instrumented. With --trace=FILE every wrapped call becomes a
// span (name, start, end, parent, query id), kept in memory and written
// to FILE as JSON lines at exit.
//
// Traced serving runs run_serving's two phases at their public seams
// (generate_arrivals, form_batches, MigrationController,
// Controller::run_single_query per query, virtual-time queueing) so each
// engine call gets its own span; run.py checks that this path yields
// the same latency digest as run_serving itself.
//
//   bohr_perfbench --workload=serve_steady --seed=1 --threads=4
//                  [--instances=6] [--seconds=20] [--max-reps=12]
//                  [--passes=1] [--trace=spans.jsonl] [--smoke]
//   bohr_perfbench --build-info --threads=4
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/latency.h"
#include "common/parallel.h"
#include "core/checkpoint.h"
#include "core/controller.h"
#include "core/migration.h"
#include "net/topology.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/server.h"
#include "workload/dataset.h"
#include "workload/query_mix.h"

namespace {

using namespace bohr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used, over all its threads.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  workload::WorkloadKind kind = workload::WorkloadKind::BigData;
  std::size_t datasets = 12;
  std::size_t rows_per_site = 480;
  std::size_t sites = 10;
  bool serving = false;
  std::size_t tenants = 0;
  double rate_qps = 0.0;  ///< per tenant
  double duration_seconds = 0.0;
};

/// The three workloads of BENCHMARK.json; --smoke shrinks each to run in
/// well under a second while keeping its shape.
Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "serve_steady") {
    w.serving = true;
    w.tenants = 16;
    w.rate_qps = 0.05;
    w.duration_seconds = 15000.0;
    if (smoke) {
      w.datasets = 4;
      w.rows_per_site = 120;
      w.tenants = 4;
      w.duration_seconds = 600.0;
    }
  } else if (name == "bulk_move") {
    w.kind = workload::WorkloadKind::TpcDs;
    w.datasets = smoke ? 6 : 24;
    w.rows_per_site = smoke ? 400 : 4000;
  } else if (name == "wide_wan") {
    w.sites = smoke ? 16 : 64;
    w.datasets = smoke ? 4 : 12;
    w.rows_per_site = smoke ? 60 : 240;
  } else {
    throw std::invalid_argument("unknown --workload=" + name);
  }
  return w;
}

/// Base-tier WAN bandwidth (the benches' 125 MB/s) and the access
/// downlink/uplink ratio of ExperimentConfig.
constexpr double kBaseBandwidth = 125e6;
constexpr double kDownlinkMultiplier = 2.0;

/// Ten paper sites, or `sites` sites in the paper's three bandwidth tiers
/// round-robin (bench_sensitivity_scale's site axis).
net::WanTopology make_topology(std::size_t sites) {
  if (sites == 10) {
    return net::make_paper_topology(kBaseBandwidth, kDownlinkMultiplier);
  }
  std::vector<net::Site> out(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    const double tier = i % 3 == 0 ? 5.0 : (i % 3 == 1 ? 2.0 : 1.0);
    out[i].name = "site" + std::to_string(i);
    out[i].uplink_bytes_per_sec = tier * kBaseBandwidth;
    out[i].downlink_bytes_per_sec =
        tier * kBaseBandwidth * kDownlinkMultiplier;
  }
  return net::WanTopology(std::move(out));
}

/// The bench harness's controller settings (bench_common's bench_config)
/// for the Bohr scheme.
core::ControllerOptions controller_options(std::uint64_t seed) {
  core::ControllerOptions options;
  options.strategy = core::Strategy::Bohr;
  options.similarity.probe_k = 30;
  options.lag_seconds = 60.0;
  options.job.partition_records = 24;
  options.job.machine.executors = 4;
  options.physical_record_bytes = 256.0;
  options.seed = hash_combine(seed, static_cast<int>(core::Strategy::Bohr));
  return options;
}

serve::ServeOptions serve_options(const Workload& w, std::uint64_t seed) {
  serve::ServeOptions opts;
  opts.arrivals.tenants = w.tenants;
  opts.arrivals.arrival_rate_qps = w.rate_qps;
  opts.arrivals.duration_seconds = w.duration_seconds;
  opts.arrivals.seed = seed;
  opts.batching.max_batch = 8;
  opts.batching.max_delay_seconds = 0.25;
  opts.slots = 4;
  opts.migration_period_seconds = 30.0;
  return opts;
}

// ---- spans ---------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::int64_t parent = -1;
  std::int64_t query = -1;
  std::size_t rep = 0;
  double start_us = 0.0;
  double end_us = -1.0;
};

/// Span store shared by every thread of the process; written out once at
/// exit.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_rep(std::size_t rep) { rep_ = rep; }

  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t query) {
    const double now = micros();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, parent, query, rep_, now, -1.0});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t id) {
    const double now = micros();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = now;
  }

  void write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"parent\":%" PRId64 ",\"name\":\"%s\","
                   "\"query\":%" PRId64 ",\"rep\":%zu,\"start_us\":%.3f,"
                   "\"end_us\":%.3f}\n",
                   i, s.parent, s.name, s.query, s.rep, s.start_us,
                   s.end_us);
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  double micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::size_t rep_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// One span around a scope; inert (id -1) when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t parent = -1,
             std::int64_t query = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

// ---- one rep -------------------------------------------------------------

bool bad_qct(double q) { return !std::isfinite(q) || q < 0.0; }

/// What one pass of the serving loop produced.
struct ServingPass {
  LatencyRecorder qct;  ///< canonical (batch, in-batch) sample order
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t batches = 0;
  std::size_t migration_epochs = 0;
};

/// run_serving's compute and queueing phases at their public seams, with
/// one span per engine call.
ServingPass traced_serving(const core::Controller& controller,
                           const serve::ServeOptions& options, Tracer& tracer,
                           std::int64_t parent) {
  ServingPass pass;
  const auto& datasets = controller.datasets();
  std::vector<std::size_t> types_per_dataset;
  for (const auto& d : datasets) {
    types_per_dataset.push_back(d.bundle().query_types.size());
  }
  std::vector<serve::QueryArrival> arrivals;
  {
    ScopedSpan span(&tracer, "serve.generate_arrivals", parent);
    arrivals = serve::generate_arrivals(options.arrivals, datasets.size(),
                                        types_per_dataset);
  }
  std::vector<serve::QueryBatch> batches;
  {
    ScopedSpan span(&tracer, "serve.form_batches", parent);
    batches = serve::form_batches(arrivals, options.arrivals.tenants,
                                  options.batching);
  }
  pass.queries = arrivals.size();
  pass.batches = batches.size();
  if (batches.empty()) return pass;

  const double period = options.migration_period_seconds;
  std::vector<engine::ReduceBucketMap> epoch_buckets;
  if (period > 0.0) {
    ScopedSpan span(&tracer, "serve.migration", parent);
    const auto epochs = static_cast<std::size_t>(
                            std::floor(batches.back().close_time / period)) +
                        1;
    core::MigrationController migctl(
        controller.topology(),
        controller.prepare_report().decision.reduce_fractions,
        options.migration);
    for (std::size_t e = 0; e < epochs; ++e) {
      migctl.step(options.faults, static_cast<double>(e) * period);
      epoch_buckets.push_back(migctl.buckets());
    }
    pass.migration_epochs = epochs;
  }

  std::vector<std::vector<double>> service(batches.size());
  {
    ScopedSpan execute(&tracer, "serve.execute", parent);
    parallel_for(batches.size(), [&](std::size_t b) {
      const serve::QueryBatch& batch = batches[b];
      const engine::ReduceBucketMap* buckets = nullptr;
      if (!epoch_buckets.empty()) {
        const auto e =
            static_cast<std::size_t>(std::floor(batch.close_time / period));
        buckets = &epoch_buckets[std::min(e, epoch_buckets.size() - 1)];
      }
      for (const std::size_t qi : batch.queries) {
        const serve::QueryArrival& q = arrivals[qi];
        Rng rng(hash_combine(options.arrivals.seed,
                             hash_combine(q.seq, 0x5E12E)));
        double time = std::numeric_limits<double>::quiet_NaN();
        try {
          ScopedSpan span(&tracer, "engine.run_single_query", execute.id(),
                          static_cast<std::int64_t>(q.seq));
          time = controller.run_single_query(q.dataset, q.type_spec, buckets,
                                             rng)
                     .qct_seconds *
                 q.work_scale;
        } catch (const std::exception&) {
          // Counted below: a query that throws is a failed query.
        }
        service[b].push_back(time);
      }
    });
  }

  ScopedSpan span(&tracer, "serve.queue", parent);
  std::vector<double> slot_free(options.slots, 0.0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const serve::QueryBatch& batch = batches[b];
    std::size_t slot = 0;
    for (std::size_t s = 1; s < slot_free.size(); ++s) {
      if (slot_free[s] < slot_free[slot]) slot = s;
    }
    double now = std::max(batch.close_time, slot_free[slot]);
    for (std::size_t k = 0; k < batch.queries.size(); ++k) {
      pass.failed += bad_qct(service[b][k]);
      now += service[b][k];
      pass.qct.add(now - arrivals[batch.queries[k]].time);
    }
    slot_free[slot] = now;
  }
  return pass;
}

/// One serving pass: run_serving itself, or its traced decomposition
/// under a "serve.run_serving" span.
ServingPass serve_queries(const core::Controller& controller,
                          const serve::ServeOptions& options, Tracer* tracer,
                          std::int64_t parent) {
  if (tracer != nullptr) {
    ScopedSpan span(tracer, "serve.run_serving", parent);
    return traced_serving(controller, options, *tracer, span.id());
  }
  serve::ServeReport report = serve::run_serving(controller, options);
  ServingPass pass;
  pass.queries = report.queries;
  pass.batches = report.batches;
  pass.migration_epochs = report.migration_epochs;
  for (const double q : report.qct.samples()) pass.failed += bad_qct(q);
  pass.qct = std::move(report.qct);
  return pass;
}

/// Short serving pass the traced batch reps run after the query phase, so
/// the serve and per-call engine layers are measured on every workload.
serve::ServeOptions probe_options(std::uint64_t seed) {
  Workload probe;
  probe.tenants = 4;
  probe.rate_qps = 0.05;
  probe.duration_seconds = 300.0;
  return serve_options(probe, seed);
}

struct RepResult {
  std::size_t instance = 0;
  double setup_s = 0.0;
  std::vector<double> query_s;  ///< wall seconds of each query-phase pass
  std::vector<double> query_cpu_s;  ///< CPU seconds of each pass
  std::size_t executions = 0;  ///< engine executions in one query pass
  std::size_t failed = 0;
  std::vector<double> qct;  ///< per-query samples (recurrence-weighted)
  std::uint32_t qct_digest = 0;
  std::uint32_t prepare_crc = 0;
  /// Modeled WAN shuffle of one pass of the recurring query mix.
  double mix_wan_bytes = 0.0;
  std::size_t mix_queries = 0;
  std::size_t rows_generated = 0;
  std::size_t rows_after_prepare = 0;
  std::size_t batches = 0;
  std::size_t migration_epochs = 0;
  std::size_t probe_queries = 0;
  std::size_t probe_failed = 0;
  core::PrepareReport prepare;
};

/// Serving reports no shuffle volume, so serving reps take the mix's
/// from one run_single_query per (dataset, type) after the timed phase,
/// weighted by recurrence count like run_all_queries' executions.
void measure_mix_wan(const core::Controller& controller, std::uint64_t seed,
                     RepResult& rep) {
  const auto& datasets = controller.datasets();
  for (std::size_t a = 0; a < datasets.size(); ++a) {
    const auto& counts = datasets[a].mix().counts;
    for (std::size_t t = 0; t < counts.size(); ++t) {
      if (counts[t] == 0) continue;
      Rng rng(hash_combine(seed, hash_combine(a, t)));
      const engine::JobResult r =
          controller.run_single_query(a, t, nullptr, rng);
      rep.mix_wan_bytes +=
          r.wan_shuffle_bytes * static_cast<double>(counts[t]);
      rep.mix_queries += counts[t];
    }
  }
}

/// Pass 0 of the query phase gives the modeled figures; later passes
/// only add timings. Serving is a pure function of the prepared
/// controller, so its later passes must reproduce pass 0's digest; batch
/// passes draw on the controller's RNG and run fresh (equal-sized) work.
RepResult run_rep(const Workload& w, std::uint64_t seed, std::size_t passes,
                  Tracer* tracer) {
  RepResult rep;
  ScopedSpan root(tracer, "rep");
  const auto t0 = Clock::now();
  std::optional<core::Controller> controller;
  {
    ScopedSpan setup(tracer, "setup", root.id());
    workload::GeneratorConfig gen;
    gen.sites = w.sites;
    gen.rows_per_site = w.rows_per_site;
    gen.gb_per_site = 40.0 / static_cast<double>(w.datasets);
    gen.seed = hash_combine(seed, gen.seed);
    Rng mix_rng(hash_combine(seed, 0xA11CE));
    std::vector<workload::DatasetBundle> bundles;
    std::vector<workload::DatasetQueryMix> mixes;
    for (std::size_t a = 0; a < w.datasets; ++a) {
      ScopedSpan span(tracer, "workload.generate", setup.id());
      bundles.push_back(workload::generate_dataset(w.kind, a, gen));
      mixes.push_back(workload::sample_query_mix(bundles.back(), mix_rng));
      rep.rows_generated += bundles.back().total_rows();
    }
    std::vector<core::DatasetState> states;
    states.reserve(w.datasets);
    for (std::size_t a = 0; a < w.datasets; ++a) {
      ScopedSpan span(tracer, "olap.cube_build", setup.id());
      states.emplace_back(std::move(bundles[a]), std::move(mixes[a]),
                          /*with_cubes=*/true);
    }
    net::WanTopology topology = [&] {
      ScopedSpan span(tracer, "net.topology", setup.id());
      return make_topology(w.sites);
    }();
    controller.emplace(std::move(topology), std::move(states),
                       controller_options(seed));
    core::PrepareProgress progress = controller->start_prepare();
    {
      ScopedSpan span(tracer, "similarity.probe_check", setup.id());
      controller->step_similarity(progress);
    }
    {
      ScopedSpan span(tracer, "lp.placement", setup.id());
      controller->step_placement(progress);
    }
    {
      ScopedSpan span(tracer, "movement.plan", setup.id());
      controller->step_plan_movement(progress);
    }
    {
      ScopedSpan span(tracer, "movement.apply", setup.id());
      controller->step_execute_movement(progress);
    }
    rep.prepare = controller->finish_prepare(std::move(progress));
  }
  rep.setup_s = seconds_since(t0);

  if (w.serving) {
    const auto q0 = Clock::now();
    const double c0 = process_cpu_s();
    ServingPass pass = serve_queries(*controller, serve_options(w, seed),
                                     tracer, root.id());
    rep.query_s.push_back(seconds_since(q0));
    rep.query_cpu_s.push_back(process_cpu_s() - c0);
    for (std::size_t p = 1; p < passes; ++p) {
      const auto p0 = Clock::now();
      const double pc0 = process_cpu_s();
      const ServingPass again =
          serve_queries(*controller, serve_options(w, seed), nullptr, -1);
      rep.query_s.push_back(seconds_since(p0));
      rep.query_cpu_s.push_back(process_cpu_s() - pc0);
      if (again.qct.digest() != pass.qct.digest()) {
        throw std::runtime_error("serving pass " + std::to_string(p) +
                                 " changed the latency digest");
      }
    }
    rep.executions = pass.queries;
    rep.failed = pass.failed;
    rep.batches = pass.batches;
    rep.migration_epochs = pass.migration_epochs;
    rep.qct = pass.qct.samples();
    rep.qct_digest = pass.qct.digest();
    measure_mix_wan(*controller, seed, rep);
  } else {
    const auto q0 = Clock::now();
    const double c0 = process_cpu_s();
    std::vector<core::QueryExecution> executions;
    {
      ScopedSpan span(tracer, "engine.run_all_queries", root.id());
      executions = controller->run_all_queries();
    }
    rep.query_s.push_back(seconds_since(q0));
    rep.query_cpu_s.push_back(process_cpu_s() - c0);
    for (std::size_t p = 1; p < passes; ++p) {
      const auto p0 = Clock::now();
      const double pc0 = process_cpu_s();
      const std::size_t n = controller->run_all_queries().size();
      rep.query_s.push_back(seconds_since(p0));
      rep.query_cpu_s.push_back(process_cpu_s() - pc0);
      if (n != executions.size()) {
        throw std::runtime_error("query pass " + std::to_string(p) + " ran " +
                                 std::to_string(n) + " executions, not " +
                                 std::to_string(executions.size()));
      }
    }
    rep.executions = executions.size();
    LatencyRecorder qct;
    for (const core::QueryExecution& exec : executions) {
      const double q = exec.result.qct_seconds;
      rep.failed += bad_qct(q);
      for (std::size_t r = 0; r < exec.recurrences; ++r) qct.add(q);
      rep.mix_wan_bytes += exec.result.wan_shuffle_bytes *
                           static_cast<double>(exec.recurrences);
      rep.mix_queries += exec.recurrences;
    }
    rep.qct = qct.samples();
    rep.qct_digest = qct.digest();
    if (tracer != nullptr) {
      ScopedSpan probe(tracer, "serve.probe", root.id());
      const ServingPass pass =
          serve_queries(*controller, probe_options(seed), tracer, probe.id());
      rep.batches = pass.batches;
      rep.migration_epochs = pass.migration_epochs;
      rep.probe_queries = pass.queries;
      rep.probe_failed = pass.failed;
    }
  }
  rep.prepare_crc =
      crc32(core::serialize_prepare_report(controller->prepare_report()));
  for (const auto& d : controller->datasets()) {
    for (std::size_t i = 0; i < d.site_count(); ++i) {
      rep.rows_after_prepare += d.rows_at(i).size();
    }
  }
  return rep;
}

// ---- output --------------------------------------------------------------

/// Shortest round-trip text of a double; JSON null when not finite.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "\"%08x\"", v);
  return buf;
}

std::string rep_json(const RepResult& r) {
  const core::PrepareReport& p = r.prepare;
  const auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += num(values[i]);
    }
    return out + "]";
  };
  return "{\"instance\":" + std::to_string(r.instance) +
         ",\"setup_s\":" + num(r.setup_s) + ",\"query_s\":" +
         list(r.query_s) + ",\"query_cpu_s\":" + list(r.query_cpu_s) +
         ",\"executions\":" +
         std::to_string(r.executions) + ",\"failed\":" +
         std::to_string(r.failed) + ",\"qct_digest\":" + hex32(r.qct_digest) +
         ",\"prepare_crc\":" + hex32(r.prepare_crc) +
         ",\"mix_wan_bytes\":" + num(r.mix_wan_bytes) +
         ",\"mix_queries\":" + std::to_string(r.mix_queries) +
         ",\"rows_generated\":" + std::to_string(r.rows_generated) +
         ",\"rows_after_prepare\":" + std::to_string(r.rows_after_prepare) +
         ",\"batches\":" + std::to_string(r.batches) +
         ",\"migration_epochs\":" + std::to_string(r.migration_epochs) +
         ",\"probe_queries\":" + std::to_string(r.probe_queries) +
         ",\"probe_failed\":" + std::to_string(r.probe_failed) +
         ",\"rows_moved\":" + std::to_string(p.rows_moved) +
         ",\"bytes_moved\":" + num(p.bytes_moved) +
         ",\"probe_bytes\":" + num(p.probe_bytes) +
         ",\"lp_iterations\":" + std::to_string(p.decision.lp_iterations) +
         ",\"lp_peak_bytes\":" + std::to_string(p.decision.lp_peak_bytes) +
         ",\"qct\":" + list(r.qct) + "}";
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string build_json() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return std::string("{\"type\":\"") + BOHR_PERFBENCH_BUILD_TYPE +
         "\",\"ndebug\":" + (ndebug ? "true" : "false") +
         ",\"avx2\":" + (BOHR_PERFBENCH_AVX2 ? "true" : "false") +
         ",\"compiler\":\"" + __VERSION__ + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"threads\":" + std::to_string(thread_count()) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto origin = Clock::now();
    const Flags flags(argc, argv);
    const std::string name = flags.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const std::int64_t threads = flags.get_int("threads", 1);
    const double seconds = flags.get_double("seconds", 0.0);
    const std::int64_t instances = flags.get_int("instances", 1);
    const std::int64_t max_reps = flags.get_int("max-reps", instances);
    const std::int64_t passes = flags.get_int("passes", 1);
    const std::string trace_path = flags.get("trace", "");
    const bool smoke = flags.get_bool("smoke", false);
    const bool build_info = flags.get_bool("build-info", false);
    for (const auto& unknown : flags.unused()) {
      throw std::invalid_argument("unknown flag --" + unknown);
    }
    if (threads < 1 || instances < 1 || max_reps < instances ||
        passes < 1) {
      throw std::invalid_argument(
          "need threads >= 1, passes >= 1 and 1 <= instances <= max-reps");
    }
    if (!trace_path.empty() && passes != 1) {
      throw std::invalid_argument("a traced run takes --passes=1");
    }
    set_thread_count(static_cast<std::size_t>(threads));
    if (build_info) {
      std::printf("%s\n", build_json().c_str());
      return 0;
    }
    const Workload w = make_workload(name, smoke);

    std::optional<Tracer> tracer;
    if (!trace_path.empty()) tracer.emplace(origin);

    // Rep r runs instance r mod --instances, each instance a workload of
    // its own inputs (seed derived from --seed and the instance index).
    // Every instance runs once; further reps cycle through them again
    // while another rep of the mean length still fits in --seconds.
    std::vector<RepResult> reps;
    double elapsed = 0.0;
    while (static_cast<std::int64_t>(reps.size()) < max_reps) {
      const auto n = static_cast<std::int64_t>(reps.size());
      if (n >= instances &&
          elapsed + elapsed / static_cast<double>(n) > seconds) {
        break;
      }
      const auto instance = static_cast<std::size_t>(n % instances);
      if (tracer) tracer->set_rep(reps.size());
      const auto r0 = Clock::now();
      reps.push_back(run_rep(w, hash_combine(seed, instance),
                             static_cast<std::size_t>(passes),
                             tracer ? &*tracer : nullptr));
      reps.back().instance = instance;
      elapsed += seconds_since(r0);
    }
    if (tracer) tracer->write(trace_path);

    std::string out = "{\"workload\":\"" + w.name +
                      "\",\"seed\":" + std::to_string(seed) +
                      ",\"smoke\":" + (smoke ? "true" : "false") +
                      ",\"traced\":" + (tracer ? "true" : "false") +
                      ",\"peak_rss_mib\":" + num(peak_rss_mib()) + ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (i > 0) out += ",";
      out += rep_json(reps[i]);
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bohr_perfbench: %s\n", e.what());
    return 1;
  }
}
