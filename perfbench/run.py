#!/usr/bin/env python3
"""Scenario benchmark: host seconds per simulated second on whole workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload slowloris --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

The first call builds scenario_bench from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Every run is a
fresh scenario_bench process that sets the workload up and runs it once.

--trace 0 repeats timed runs (audit, digest and telemetry off) for about
--seconds of host time, at least MIN_TIMED_RUNS of them, and reports the
end-to-end metrics over them: Run() time slice by slice from the fastest
process, the fastest process's set-up time, the median memory. --trace 1
makes one timed run and one traced run and reports the per-layer metrics.
Every run is checked: spec assertions, and the simulated outputs (RunResult
metrics, registry counts, and in traced runs the timeline digest) against
the values recorded in perfbench/expected.json for the workload, its phases
and the seed. A run that crashes, times out or differs counts as failed; the
failure names what differed.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every run was correct.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_BASELINE_RPS = 2954.0

# Each workload's spec and the simulated phases [warm-up s, measurement s] it
# runs for. The phases are short so that a run holds many processes: the
# per-slice best of best_wall_s settles only from about ten processes on.
# Two simulated seconds of warm-up bring slowloris to its steady ~5.3k live
# connection containers.
WORKLOADS = {
    "slowloris": ("scenarios/slowloris.json", [2.0, 2.0]),
    "baseline_unmodified": ("perfbench/specs/baseline_unmodified.json", [2.0, 148.0]),
}

END_TO_END_UNITS = {
    "wall_per_sim_s": "s/sim-s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "xp.parse_s": "s",
    "xp.compile_s": "s",
    "xp.teardown_s": "s",
    "sim.events_per_sim_s": "events/sim-s",
    "sim.cancel_frac": "ratio",
    "sim.events_per_host_s": "events/s",
    "sim.host_ns_per_event.p50": "ns",
    "sim.host_ns_per_event.p90": "ns",
    "sim.queue_op_ns": "ns",
    "sched.live_containers.mean": "containers",
    "sched.live_containers.max": "containers",
    "sched.pop_ns": "ns",
    "sched.charge_ns": "ns",
    "rc.creates_per_sim_s": "containers/sim-s",
    "rc.create_destroy_ns": "ns",
    "net.packets_per_sim_s": "packets/sim-s",
    "httpd.accepts_per_sim_s": "conns/sim-s",
    "httpd.cache_hit_frac": "ratio",
    "load.latency_samples": "samples",
    "bench.trace_overhead_frac": "ratio",
}

MIN_TIMED_RUNS = 3
RUN_TIMEOUT_S = 150


class RunFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures and builds scenario_bench; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RunFailed("simulator sources (src/) not found: run from the repository root")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RunFailed("build failed: " + " ".join(cmd))
    return os.path.join(out, "scenario_bench")


def bench_env():
    env = dict(os.environ)
    env.pop("RC_AUDIT", None)  # auditing stays off in timed runs
    return env


def run_bench(binary, spec, seed, mode, phases, trace_out=None, timeout=RUN_TIMEOUT_S):
    cmd = [binary, "--spec=" + spec, "--seed=%d" % seed, "--mode=" + mode,
           "--warmup-s=%r" % phases[0], "--measure-s=%r" % phases[1]]
    if trace_out:
        cmd.append("--trace-out=" + trace_out)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout, env=bench_env())
    except subprocess.TimeoutExpired:
        raise RunFailed("%s run timed out after %d s" % (mode, timeout))
    if proc.returncode != 0:
        raise RunFailed("%s run exited with %d: %s" %
                        (mode, proc.returncode, proc.stderr.strip()[-400:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed("%s run printed no result" % mode)


def simulated_outputs(result):
    """The deterministic part of a run: RunResult metrics and registry counts."""
    out = {"metric/" + k: v for k, v in result["metrics"].items()}
    out.update({"count/" + k: v for k, v in result["counts"].items()})
    return out


def differences(got, want, against):
    """One line per simulated output that differs, naming the output."""
    return ["%s = %r, %s %r" % (name, got.get(name), against, want.get(name))
            for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)]


def load_expected(path, workload, seed, phases):
    """Recorded outputs for (workload, seed, phases), or None when not recorded."""
    with open(path) as f:
        recorded = json.load(f)
    table = recorded["workloads"].get(workload)
    if table is None or table["phases"] != phases:
        return None
    outputs = table["outputs"]
    return outputs.get(str(seed), outputs.get("*"))


def check_run(result, expected, reference):
    """Failure reasons for one run; empty when the run is correct."""
    reasons = ["assertion failed: " + a for a in result["failed_assertions"]]
    if not result["assertions_ok"] and not reasons:
        reasons.append("assertion failed")
    got = simulated_outputs(result)
    if expected is not None:
        reasons += differences(got, expected["simulated"], "recorded")
        if result["digest"] and result["digest"] != expected["digest"]:
            reasons.append("timeline digest = %s, expected %s" %
                           (result["digest"], expected["digest"]))
    elif reference is not None:
        reasons += differences(got, simulated_outputs(reference), "reference run")
    return reasons


def median(values):
    return statistics.median(values) if values else float("nan")


def timed_runs(binary, args, spec, phases, expected, deadline):
    """At least MIN_TIMED_RUNS timed runs, then more while the next one is
    expected to end by the deadline."""
    results, attempted, failed, last = [], 0, 0, 0.0
    while attempted < MIN_TIMED_RUNS or time.monotonic() + last <= deadline:
        attempted += 1
        start = time.monotonic()
        try:
            r = run_bench(binary, spec, args.seed, "timed", phases)
            reasons = check_run(r, expected, results[0] if results else None)
            if reasons:
                raise RunFailed("; ".join(reasons))
            results.append(r)
        except RunFailed as e:
            failed += 1
            log("%s seed %d: run %d FAILED: %s" % (args.workload, args.seed, attempted, e))
        last = time.monotonic() - start
    return results, attempted, failed


def best_wall_s(results):
    """Run() wall time with each 100 ms simulated slice taken from the process
    that ran it fastest. The measuring host switches between a fast speed
    and one about 2x slower every second or so, so a whole process is rarely
    fast throughout, while every slice does the same work in every process
    of a run (same spec, phases and seed)."""
    slices = [r["slice_wall_s"] for r in results]
    if len({len(s) for s in slices}) != 1:
        raise RunFailed("processes of one run timed different numbers of slices")
    return sum(min(walls) for walls in zip(*slices))


def end_to_end(results):
    """Run time is the slice-wise best of the run's processes (best_wall_s);
    set-up time the fastest process's median set-up; memory the median."""
    return {
        "wall_per_sim_s": best_wall_s(results) / results[0]["sim_s"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
        "setup_s": min(median(r["setup_s"]) for r in results),
    }


def per_layer(timed, traced):
    c = timed["counts"]
    sim_s = timed["sim_s"]
    layers = traced["layers"]
    dispatched = c["engine.events_dispatched"]
    canceled = c["engine.events_canceled"]
    hits, misses = c["httpd.cache.hits"], c["httpd.cache.misses"]
    out = {k: layers[k] for k in (
        "xp.parse_s", "xp.compile_s", "xp.teardown_s",
        "sim.host_ns_per_event.p50", "sim.host_ns_per_event.p90", "sim.queue_op_ns",
        "sched.live_containers.mean", "sched.live_containers.max",
        "sched.pop_ns", "sched.charge_ns", "rc.create_destroy_ns")}
    out.update({
        "sim.events_per_sim_s": dispatched / sim_s,
        "sim.cancel_frac": canceled / (dispatched + canceled),
        "sim.events_per_host_s": dispatched / timed["run_wall_s"],
        "rc.creates_per_sim_s": layers["rc.created"] / sim_s,
        "net.packets_per_sim_s": (c["net.packets_in"] + c["net.packets_out"]) / sim_s,
        "httpd.accepts_per_sim_s": c["httpd.connections_accepted"] / sim_s,
        "httpd.cache_hit_frac": hits / (hits + misses) if hits + misses else float("nan"),
        "load.latency_samples": c["load.latency_samples"],
        "bench.trace_overhead_frac": traced["run_wall_s"] / timed["run_wall_s"] - 1.0,
    })
    return out


def traced_runs(binary, args, spec, phases, expected):
    trace_out = os.path.join(build_dir(), "trace-%s-seed%d.json" % (args.workload, args.seed))
    attempted, failed, timed, traced = 0, 0, None, None
    for mode in ("timed", "traced"):
        attempted += 1
        try:
            r = run_bench(binary, spec, args.seed, mode, phases,
                           trace_out if mode == "traced" else None)
            # The traced run must reproduce the untraced one exactly: both
            # match the recorded outputs, or, unrecorded, each other.
            reasons = check_run(r, expected, timed)
            if reasons:
                raise RunFailed("; ".join(reasons))
            if mode == "timed":
                timed = r
            else:
                traced = r
        except RunFailed as e:
            failed += 1
            log("%s seed %d: %s run FAILED: %s" % (args.workload, args.seed, mode, e))
    if timed is None or traced is None:
        return {}, attempted, failed
    log("%s seed %d: spans written to %s" % (args.workload, args.seed, trace_out))
    return per_layer(timed, traced), attempted, failed


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def run_workload(binary, args):
    spec, phases = WORKLOADS[args.workload]
    phases = args.phases or phases
    expected = load_expected(args.expected, args.workload, args.seed, phases)
    if expected is None:
        log("%s seed %d: no recorded outputs for this seed; runs are checked "
            "against each other and their spec assertions" % (args.workload, args.seed))
    if args.trace:
        metrics, attempted, failed = traced_runs(binary, args, spec, phases, expected)
        units = PER_LAYER_UNITS
    else:
        deadline = time.monotonic() + args.seconds
        results, attempted, failed = timed_runs(binary, args, spec, phases, expected, deadline)
        metrics = end_to_end(results) if results else {}
        units = END_TO_END_UNITS
        if results:
            walls = sorted(r["run_wall_s"] / r["sim_s"] for r in results)
            print("%s: wall_per_sim_s of each timed run: %s s/sim-s" %
                  (args.workload, " ".join("%.4g" % w for w in walls)))
        if results and args.workload == "baseline_unmodified":
            rps = results[0]["metrics"]["throughput_rps"]
            print("baseline_unmodified: throughput %.1f req/s, model error %+.2f%% "
                  "against the paper's %.0f req/s" %
                  (rps, 100.0 * (rps / PAPER_BASELINE_RPS - 1.0), PAPER_BASELINE_RPS))
    print("%s seed %d: %d runs, %d failed" % (args.workload, args.seed, attempted, failed))
    for name, unit in units.items():
        print("  %-28s %14s %s" % (name, fmt(metrics.get(name, float("nan"))), unit))
    print("  %-28s %14s %s" % ("runs_failed_frac", fmt(failed / attempted), "ratio"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit}
                    for name, unit in units.items()},
    }


def clean(obj):
    """JSON has no NaN: a metric that could not be measured becomes null."""
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                   help="recorded simulated outputs (default: perfbench/expected.json)")
    p.add_argument("--phases", type=float, nargs=2, metavar=("WARMUP_S", "MEASURE_S"),
                   help="override the workload's phases (short self-test runs)")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except RunFailed as e:
        log("perfbench: %s" % e)
        return 2
    if args.workload != "all":
        result = run_workload(binary, args)
        print(json.dumps(clean(result)))
        return 0 if result["correct"] else 1
    summary = {}
    for name in WORKLOADS:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        summary[name] = run_workload(binary, one)
    print(json.dumps(clean(summary)))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
