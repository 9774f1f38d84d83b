"""Write BENCH_baseline.json: every workload's end-to-end and per-layer
metrics for one seed, the environment, and two reference requests timed
alone (the figures the ROADMAP re-anchor quotes).

    python3 perfbench/baseline.py [--seed 0] [--seconds 20]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import harness
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "BENCH_baseline.json")

REFERENCE = (
    ["verify-kostant", "--type", "A2", "--weight", "1,1"],
    ["verify-relative", "--pair", "A2:u2", "--lambda-max", "1"],
)
REPEATS = 3


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0].split(": ", 1)[1])
    return env, json.loads(lines[-1])


def reference_latencies():
    """Median latency of each reference request, each run alone on an
    empty cache, in the same forked-child harness as the workloads."""
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench-work", "baseline-%d" % os.getpid())
    os.makedirs(os.path.join(work, "home"))
    os.environ["HOME"] = os.path.join(work, "home")
    cwd = os.getcwd()
    try:
        os.chdir(work)
        import diracforge.cli  # noqa: F401  (imported once, as in run.py)
        out = {}
        for argv in REFERENCE:
            times = []
            for k in range(REPEATS):
                res = harness.run_request(argv, "cache-%d" % k)
                if res.code != 0:
                    raise SystemExit("%s exited %s" % (argv, res.code))
                times.append(res.latency)
            out[" ".join(argv)] = statistics.median(times)
        return out
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    bench = {"workloads": {}}
    for workload in workloads.WORKLOADS:
        env, e2e = _run(workload, args.seed, args.seconds, 0)
        _, layers = _run(workload, args.seed, args.seconds, 1)
        if not (e2e["correct"] and layers["correct"]):
            raise SystemExit("%s: run was not correct" % workload)
        bench["workloads"][workload] = {"passes": env["passes"],
                                        "end_to_end": e2e["metrics"],
                                        "per_layer": layers["metrics"]}
        env.pop("workload")
        env.pop("passes")
        bench["environment"] = env
    bench["reference_requests"] = reference_latencies()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
