#!/usr/bin/env python3
"""Records the simulated outputs every benchmark run is checked against.

Run from the root of the repository after a change that is meant to alter
simulated behaviour (never to make a failing benchmark pass):

    python3 perfbench/record.py --seeds 0-31 [--jobs 2] [--out perfbench/expected.json]

For each workload it runs scenario_bench in digest mode (timeline digest on,
otherwise a timed run) once per seed and stores the RunResult metrics,
registry counts and digest. A workload whose outputs are identical for every
seed is marked seed-insensitive and stored once, under "*", which then
applies to any seed; otherwise each seed is stored separately and a seed
outside the recorded set is checked only run against run. Sensitivity is
measured here, not assumed.
"""

import argparse
import concurrent.futures
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_one(binary, spec, seed, phases):
    r = run.run_bench(binary, spec, seed, "digest", phases)
    if not r["assertions_ok"]:
        raise run.RunFailed("seed %d: assertions failed: %s" % (seed, r["failed_assertions"]))
    return {"digest": r["digest"], "simulated": run.simulated_outputs(r)}


def record(workloads, seeds, jobs, phases_override=None):
    binary = run.build()
    table = {}
    for name in workloads:
        spec, phases = run.WORKLOADS[name]
        phases = phases_override or phases
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(lambda s: record_one(binary, spec, s, phases), seeds))
        sensitive = any(o != outs[0] for o in outs)
        distinct = len({json.dumps(o, sort_keys=True) for o in outs})
        run.log("%s: %d seeds, %d distinct outputs, seed-%s" %
                (name, len(seeds), distinct, "sensitive" if sensitive else "insensitive"))
        table[name] = {
            "phases": phases,
            "seed_sensitive": sensitive,
            "seeds_checked": seeds,
            "outputs": ({str(s): o for s, o in zip(seeds, outs)} if sensitive
                        else {"*": outs[0]}),
        }
    return {"workloads": table}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 1,2,5-8")
    p.add_argument("--jobs", type=int, default=2, help="scenario_bench processes at once")
    p.add_argument("--out", default=os.path.join(run.HERE, "expected.json"))
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--phases", type=float, nargs=2, metavar=("WARMUP_S", "MEASURE_S"),
                   help="override the workloads' phases (self-test recordings)")
    args = p.parse_args(argv)
    try:
        table = record(args.workloads.split(","), parse_seeds(args.seeds), args.jobs,
                       args.phases)
    except run.RunFailed as e:
        run.log("record: %s" % e)
        return 1
    with open(args.out, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
