#!/usr/bin/env python3
"""Self-test of the scenario benchmark, at a fraction of a simulated second.

Run from the root of the repository:

    python3 perfbench/selftest.py

It checks that
  * a traced run reproduces the untraced run with the digest on: the same
    timeline digest, RunResult metrics and registry counts, per workload;
  * perfbench/run.py prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) of BENCHMARK.json by name with its unit,
    counts no failure, and ends with the result line the contract names;
  * a planted wrong expected output, and a planted wrong digest, make the
    run count as failed, with the failure naming what differed;
  * outside a repository checkout (only BENCHMARK.json and perfbench/) the
    benchmark exits non-zero without printing a result.
Scratch files go to the benchmark's build directory. Exit code 0 = pass.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import record  # noqa: E402
import run  # noqa: E402

PHASES = [0.3, 0.5]  # warm-up and measurement, simulated seconds
SEED = 2

failures = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, expected_path):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--expected", expected_path, "--phases"] + [str(p) for p in PHASES]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    workloads = [w["name"] for w in contract["workloads"]]
    check(sorted(workloads) == sorted(run.WORKLOADS), "BENCHMARK.json names run.py's workloads")
    check(units[0] == run.END_TO_END_UNITS, "end-to-end metrics match run.py")
    check(units[1] == run.PER_LAYER_UNITS, "per-layer metrics match run.py")

    binary = run.build()
    scratch = run.build_dir()
    expected_path = os.path.join(scratch, "selftest-expected.json")
    table = record.record(workloads, [SEED], 1, PHASES)
    with open(expected_path, "w") as f:
        json.dump(table, f)

    for w in workloads:
        spec = run.WORKLOADS[w][0]
        plain = run.run_bench(binary, spec, SEED, "digest", PHASES)
        traced = run.run_bench(binary, spec, SEED, "traced", PHASES,
                                os.path.join(scratch, "selftest-trace.json"))
        check(traced["digest"] == plain["digest"] and plain["digest"],
              "%s: traced digest %s == untraced %s" % (w, traced["digest"], plain["digest"]))
        check(run.simulated_outputs(traced) == run.simulated_outputs(plain),
              "%s: traced RunResult metrics and counts == untraced" % w)

        for trace in (0, 1):
            proc, lines, result = bench(w, trace, expected_path)
            ok = (proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1)
            check(ok, "%s --trace %d: all runs correct%s" %
                  (w, trace, "" if ok else "\n" + proc.stderr.strip()[-600:]))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d: result line has exactly the contract's keys" % (w, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units[trace], "%s --trace %d: every metric reported with its unit"
                  % (w, trace))
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  "%s --trace %d: every metric has a numeric value" % (w, trace))
            text = "\n".join(lines[:-1])
            printed = all(any(n in ln and u in ln for ln in text.splitlines())
                          for n, u in list(units[trace].items()) + [("runs_failed_frac", "ratio")])
            check(printed, "%s --trace %d: every metric printed by name with unit" % (w, trace))

    # Planted wrong expectations: the runs must count as failed.
    w = workloads[0]
    planted = copy.deepcopy(table)
    entry = next(iter(planted["workloads"][w]["outputs"].values()))
    entry["simulated"]["metric/throughput_rps"] += 1.0
    entry["digest"] = "0000000000000000"
    planted_path = os.path.join(scratch, "selftest-planted.json")
    with open(planted_path, "w") as f:
        json.dump(planted, f)
    proc, _, result = bench(w, 0, planted_path)
    check(proc.returncode != 0 and not result["correct"]
          and result["failed"] == result["attempted"] >= 1,
          "%s: planted expected output fails every timed run" % w)
    check("metric/throughput_rps" in proc.stderr, "%s: the failure names the metric" % w)
    proc, _, result = bench(w, 1, planted_path)
    check(not result["correct"] and "timeline digest" in proc.stderr,
          "%s: planted digest fails the traced run, naming the digest" % w)

    # Outside a checkout the benchmark cannot build and must say so.
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "bare directory: non-zero exit, no result line")

    print("selftest: %s" % ("PASS" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
