#!/usr/bin/env python3
"""The repo benchmark: host cost and modeled QCT of the Bohr simulator.

Builds perfbench's driver (bohr_perfbench) from source, runs one named
workload, checks its outputs, and prints the metrics as the last line of
stdout:

  python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 24 --trace 0
  python3 perfbench/run.py --self-test        # every workload at smoke size

--trace 0 reports the end-to-end metrics of untraced runs at the
workload's N threads (WORKLOADS below, at most nproc). --trace 1 reports
the per-layer metrics of traced runs at 1 thread (.t1) and at N threads
(.tN), plus the tracing overhead,
and fails unless the traced 1-thread run's latency digest and
prepare-report CRC equal the untraced N-thread runs' (the
thread-invariance contract). Build facts, the tail percentile used,
sample counts and digests go to .bench_build/perfbench/results/; spans go
to .bench_build/perfbench/traces/ as JSON lines.
"""
import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
DRIVER_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))

# Per workload: instances per timed run, each the workload on its own
# generated inputs, so one run pools enough data that its modeled figures
# hold across seeds (the traced runs use instance 0 only); query-phase
# passes per instance, whose median is its host time; and N, the thread
# count of the timed and .tN runs.
#
# bulk_move's query phase is nearly serial and short next to its set-up,
# so it is timed over several passes, at 2 threads: at 4 threads on a
# shared 4-vCPU host its combine barriers wait on whichever vCPU the host
# took away, and that wait, not the program, set its run-to-run spread.
WORKLOADS = {
    "serve_steady": {"instances": 6, "passes": 1, "threads": 4},
    "bulk_move": {"instances": 4, "passes": 3, "threads": 2},
    "wide_wan": {"instances": 8, "passes": 1, "threads": 4},
}
SMOKE_INSTANCES = 2
TRACED_REPS = 2


def threads_of(workload):
    return min(WORKLOADS[workload]["threads"], NPROC)

END_TO_END = {
    "setup_s": "s",
    "host_us_per_query": "us",
    "peak_rss_mb": "MiB",
    "qct_p50_s": "s",
    "qct_tail_s": "s",
    "wan_shuffle_gb": "GB/query",
    "answered_frac": "fraction",
}

# Per-layer metrics (layer = src/ module); each is reported at 1 thread
# and at N threads. interactions.json says what each should move, where.
LAYERS = {
    "engine.query_us_p50": "us",
    "engine.query_us_tail": "us",
    "engine.queries": "count",
    "serve.trace_s": "s",
    "serve.queue_s": "s",
    "serve.batches": "count",
    "serve.migration_epochs": "count",
    "workload.generate_s": "s",
    "olap.cube_build_s": "s",
    "olap.rows": "count",
    "movement.plan_s": "s",
    "movement.apply_s": "s",
    "movement.rows_moved": "count",
    "movement.bytes_moved": "bytes",
    "similarity.probe_check_s": "s",
    "similarity.probe_bytes": "bytes",
    "lp.placement_s": "s",
    "lp.iterations": "count",
    "lp.peak_bytes": "bytes",
}
OVERHEAD = {"trace.overhead_host_pct": "%", "trace.overhead_setup_pct": "%"}

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


class BenchError(Exception):
    """A failed build, run or output check."""


def per_layer_units():
    units = {}
    for name, unit in LAYERS.items():
        units[name + ".t1"] = unit
        units[name + ".tN"] = unit
    units.update(OVERHEAD)
    return units


# ---- build and run -------------------------------------------------------

def build(build_type):
    build_dir = OUT / ("build-" + build_type.lower())
    log_path = OUT / ("build-" + build_type.lower() + ".log")
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, NPROC))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=" + build_type])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "bohr_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed (%s):\n%s" % (log_path, "\n".join(tail)))
    return build_dir / "bohr_perfbench"


def run_driver(exe, workload, seed, threads, instances, reps, seconds=0,
               passes=1, trace=None, smoke=False):
    """One driver process: `instances` reps, then more (up to `reps`) while
    another fits in `seconds`; each rep runs its query phase `passes` times."""
    cmd = [str(exe), "--workload=" + workload, "--seed=%d" % seed,
           "--threads=%d" % threads, "--instances=%d" % instances,
           "--max-reps=%d" % reps, "--seconds=%s" % seconds,
           "--passes=%d" % passes]
    if trace is not None:
        trace.parent.mkdir(parents=True, exist_ok=True)
        cmd.append("--trace=" + str(trace))
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (" ".join(cmd), DRIVER_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                               proc.stderr.strip()[-2000:]))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["instances"] = instances
    return record


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


# ---- statistics ------------------------------------------------------------

def percentile(values, p):
    """Linear interpolation between closest ranks (common/stats' rule)."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] * (1.0 - (rank - lo)) + v[hi] * (rank - lo)


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if len(values) * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)  # too few samples for any tail


# ---- checks ----------------------------------------------------------------

def build_facts(exe, threads, smoke):
    """Build type, NDEBUG, AVX2, compiler, nproc and threads of the driver.
    Timings from a build without NDEBUG are refused before any run."""
    proc = subprocess.run([str(exe), "--build-info", "--threads=%d" % threads],
                          capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s --build-info exited %d" % (exe, proc.returncode))
    facts = json.loads(proc.stdout)
    if not smoke and not facts["ndebug"]:
        raise BenchError("timings invalid: driver built without NDEBUG (%s build)"
                         % facts["type"])
    return facts


def check_outputs(record):
    for i, rep in enumerate(record["reps"]):
        where = "%s rep %d" % (record["workload"], i)
        if rep["executions"] < 1 or not rep["qct"]:
            raise BenchError(where + ": no queries executed")
        if rep["rows_after_prepare"] != rep["rows_generated"]:
            raise BenchError("%s: %d rows generated but %d after movement"
                             % (where, rep["rows_generated"], rep["rows_after_prepare"]))
        bad = sum(1 for q in rep["qct"] if q is None or not math.isfinite(q) or q < 0)
        if bad and not rep["failed"]:
            raise BenchError(where + ": non-finite or negative QCT not counted as failed")


def first_reps(record):
    """Instance index -> that instance's first rep."""
    out = {}
    for rep in record["reps"]:
        out.setdefault(rep["instance"], rep)
    return out


def check_same(reference, record, what):
    """Every instance of `reference` must carry the same latency digest and
    prepare-report CRC in `record` (and in each of its repeated reps)."""
    ref = first_reps(reference)
    for rep in record["reps"]:
        expect = ref.get(rep["instance"])
        if expect is None:
            continue
        for key in ("qct_digest", "prepare_crc"):
            if rep[key] != expect[key]:
                raise BenchError("%s: instance %d %s %s != %s" % (
                    what, rep["instance"], key, rep[key], expect[key]))


def check_spans(spans):
    """Spans nest (child within parent, same rep) and self time >= 0."""
    children = {}
    for s in spans:
        if s["end_us"] < s["start_us"]:
            raise BenchError("span %d (%s) ends before it starts" % (s["id"], s["name"]))
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        if p["rep"] != s["rep"] or s["start_us"] < p["start_us"] or s["end_us"] > p["end_us"]:
            raise BenchError("span %d (%s) not within parent %d (%s)"
                             % (s["id"], s["name"], p["id"], p["name"]))
        children.setdefault(p["id"], []).append((s["start_us"], s["end_us"]))
    for pid, intervals in children.items():
        covered, reach = 0.0, -math.inf
        for start, end in sorted(intervals):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        p = spans[pid]
        if (p["end_us"] - p["start_us"]) - covered < -1e-6:
            raise BenchError("span %d (%s) has negative self time" % (pid, p["name"]))


# ---- metrics ---------------------------------------------------------------

def tally(records):
    """(queries attempted, queries failed) over every rep of `records`."""
    reps = [rep for record in records for rep in record["reps"]]
    return (sum(rep["executions"] + rep["probe_queries"] for rep in reps),
            sum(rep["failed"] + rep["probe_failed"] for rep in reps))


def end_to_end(record):
    reps = record["reps"]
    modeled = [first_reps(record)[k] for k in range(record["instances"])]
    samples = [q for rep in modeled for q in rep["qct"] if q is not None]
    tail_pct, tail_value = tail(samples)
    attempted, failed = tally([record])
    executions = sum(rep["executions"] for rep in reps)
    metrics = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "host_us_per_query": sum(statistics.median(rep["query_s"]) for rep in reps)
        * 1e6 / executions,
        "peak_rss_mb": record["peak_rss_mib"],
        "qct_p50_s": percentile(samples, 50.0),
        "qct_tail_s": tail_value,
        "wan_shuffle_gb": sum(rep["mix_wan_bytes"] for rep in modeled)
        / sum(rep["mix_queries"] for rep in modeled) / 1e9,
        "answered_frac": 1.0 - failed / attempted,
    }
    info = {"qct_tail_percentile": tail_pct, "qct_samples": len(samples),
            "reps": len(reps), "attempted": attempted, "failed": failed,
            "query_passes_s": [rep["query_s"] for rep in reps],
            "host_cpu_us_per_query": sum(statistics.median(rep["query_cpu_s"])
                                         for rep in reps) * 1e6 / executions}
    return metrics, info


def rep_layers(rep, spans):
    """Per-layer values of one rep from its spans and counters."""
    total = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + (s["end_us"] - s["start_us"]) / 1e6
    engine_us = [s["end_us"] - s["start_us"] for s in spans
                 if s["name"] == "engine.run_single_query"]
    t = total.get
    return {
        "engine.query_us_p50": percentile(engine_us, 50.0),
        "engine.query_us_tail": tail(engine_us)[1],
        "engine.queries": len(engine_us),
        "serve.trace_s": t("serve.generate_arrivals", 0.0) + t("serve.form_batches", 0.0),
        "serve.queue_s": t("serve.run_serving", 0.0) - t("serve.execute", 0.0),
        "serve.batches": rep["batches"],
        "serve.migration_epochs": rep["migration_epochs"],
        "workload.generate_s": t("workload.generate", 0.0),
        "olap.cube_build_s": t("olap.cube_build", 0.0),
        "olap.rows": rep["rows_generated"],
        "movement.plan_s": t("movement.plan", 0.0),
        "movement.apply_s": t("movement.apply", 0.0),
        "movement.rows_moved": rep["rows_moved"],
        "movement.bytes_moved": rep["bytes_moved"],
        "similarity.probe_check_s": t("similarity.probe_check", 0.0),
        "similarity.probe_bytes": rep["probe_bytes"],
        "lp.placement_s": t("lp.placement", 0.0),
        "lp.iterations": rep["lp_iterations"],
        "lp.peak_bytes": rep["lp_peak_bytes"],
    }


def layers(record, spans):
    """Median over the record's reps of every per-layer value."""
    by_rep = {}
    for s in spans:
        by_rep.setdefault(s["rep"], []).append(s)
    values = [rep_layers(rep, by_rep.get(i, [])) for i, rep in enumerate(record["reps"])]
    return {name: statistics.median_low(v[name] for v in values) for name in LAYERS}


# ---- the two modes ---------------------------------------------------------

def trace_path(workload, seed, tag):
    return OUT / "traces" / ("%s-seed%d-%s.jsonl" % (workload, seed, tag))


def reference_run(exe, workload, seed, smoke):
    """Instance 0 traced at one thread: the thread-invariance reference."""
    path = trace_path(workload, seed, "t1")
    ref = run_driver(exe, workload, seed, 1, 1, 1, trace=path, smoke=smoke)
    check_outputs(ref)
    spans = load_spans(path)
    check_spans(spans)
    return ref, spans


def measure_end_to_end(exe, args, smoke):
    config = WORKLOADS[args.workload]
    instances = SMOKE_INSTANCES if smoke else config["instances"]
    # Smoke runs take at least two passes so the repeat path is checked.
    passes = max(2, config["passes"]) if smoke else config["passes"]
    timed = run_driver(exe, args.workload, args.seed, threads_of(args.workload),
                       instances, 2 * instances, seconds=args.seconds,
                       passes=passes, smoke=smoke)
    check_outputs(timed)
    check_same(timed, timed, "repeated reps")
    metrics, info = end_to_end(timed)
    info["digests"] = {str(k): [r["qct_digest"], r["prepare_crc"]]
                       for k, r in sorted(first_reps(timed).items())}
    return metrics, info


def measure_layers(exe, args, smoke):
    threads = threads_of(args.workload)
    untraced = run_driver(exe, args.workload, args.seed, threads, 1,
                          TRACED_REPS, seconds=1e9, smoke=smoke)
    check_outputs(untraced)
    path_n = trace_path(args.workload, args.seed, "tN")
    traced = run_driver(exe, args.workload, args.seed, threads, 1,
                        TRACED_REPS, seconds=1e9, trace=path_n, smoke=smoke)
    check_outputs(traced)
    spans_n = load_spans(path_n)
    check_spans(spans_n)
    ref, spans_1 = reference_run(exe, args.workload, args.seed, smoke)
    check_same(untraced, traced, "traced vs untraced %d-thread" % threads)
    check_same(ref, untraced, "1-thread traced vs %d-thread untraced" % threads)

    metrics = {}
    for tag, record, spans in (("t1", ref, spans_1), ("tN", traced, spans_n)):
        for name, value in layers(record, spans).items():
            metrics[name + "." + tag] = value
    plain, _ = end_to_end(untraced)
    with_spans, info = end_to_end(traced)
    metrics["trace.overhead_host_pct"] = 100.0 * (
        with_spans["host_us_per_query"] / plain["host_us_per_query"] - 1.0)
    metrics["trace.overhead_setup_pct"] = 100.0 * (
        with_spans["setup_s"] / plain["setup_s"] - 1.0)
    info["attempted"], info["failed"] = tally([untraced, traced, ref])
    info["traces"] = [str(path_n), str(trace_path(args.workload, args.seed, "t1"))]
    info["span_counts"] = [len(spans_n), len(spans_1)]
    return metrics, info


def result_line(metrics, units, info, correct):
    return {"correct": correct, "attempted": max(1, info["attempted"]),
            "failed": info["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def measure(args, smoke=False):
    """One benchmark run; returns (result line, full record)."""
    exe = build(args.build_type)
    facts = build_facts(exe, threads_of(args.workload), smoke)
    if args.trace:
        metrics, info = measure_layers(exe, args, smoke)
        units = per_layer_units()
    else:
        metrics, info = measure_end_to_end(exe, args, smoke)
        units = END_TO_END
    correct = info["failed"] == 0
    line = result_line(metrics, units, info, correct)
    record = dict(info, build=facts, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, result=line)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                          "-smoke" if smoke else "")
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return line, record


# ---- self-test -------------------------------------------------------------

def self_test(args):
    """Every workload at smoke size: every metric BENCHMARK.json names is
    printed with its unit, spans nest, and the digest check can fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if want_e2e != END_TO_END or want_layer != per_layer_units():
        raise BenchError("BENCHMARK.json metrics/units differ from run.py's")
    table = json.loads((HERE / "interactions.json").read_text())
    missing = set(LAYERS) - {row["metric"] for row in table["per_layer"]}
    if missing:
        raise BenchError("interactions.json lacks " + ", ".join(sorted(missing)))
    for w in spec["workloads"]:
        args.workload = w["name"]
        for trace, want in ((0, want_e2e), (1, want_layer)):
            args.trace = trace
            line, record = measure(args, smoke=True)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want or not line["correct"]:
                raise BenchError("%s trace %d: metrics %s, correct=%s"
                                 % (w["name"], trace, sorted(set(got) ^ set(want)),
                                    line["correct"]))
            print("self-test: %s trace=%d ok (%d metrics)" % (w["name"], trace, len(got)))
        # The digest check must be able to fail.
        exe = build(args.build_type)
        ref, _ = reference_run(exe, w["name"], args.seed, True)
        for key in ("qct_digest", "prepare_crc"):
            bad = copy.deepcopy(ref)
            bad["reps"][0][key] = "%08x" % (int(bad["reps"][0][key], 16) ^ 1)
            try:
                check_same(ref, bad, "self-test")
            except BenchError:
                continue
            raise BenchError("a mismatched %s went unnoticed" % key)
        print("self-test: %s mismatched digests rejected" % w["name"])
    print("self-test: passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-type", default="Release",
                        help="CMake build type; timings need NDEBUG (Release)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at smoke size and check the benchmark")
    args = parser.parse_args()
    try:
        if args.self_test:
            self_test(args)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        line, record = measure(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("build: %s" % json.dumps(record["build"]))
    if not args.trace:
        print("qct_tail_s is p%g over %d samples" % (record["qct_tail_percentile"],
                                                     record["qct_samples"]))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
