"""diracforge benchmark: seeded CLI workloads, checked answers, traced layers.

    python3 perfbench/run.py --workload kostant --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the request lists):

* kostant          verify-kostant on A2 (dim V <= 6), A1 sweeps, A1xA1,
                   A1xT1/A1xT2: operator assembly and dense add/scale/product;
* relative         verify-relative on A1:T (lambda <= 7), A2:u2, A2:T,
                   A2:full, plus the kernelIndex == diracInduct oracle: many
                   small operators and buildLieRep;
* characters_cold  char/tensor/restrict/qr-coadjoint/induct/polarize/
                   qr-toric/decompose, each request on an empty cache, so
                   every character goes through Freudenthal and is stored;
* characters_warm  the same list replayed against a cache filled during
                   set-up, so every character is a cache read.

A run replays its request list a fixed number of passes (scaled from
workloads.PASSES by --seconds), one forked child per request, one child
at a time.  Every answer is checked (checks.py); repeated passes must
print the same bytes, warm answers must equal cold ones, and for the seed
in digests.json every report digest must match.  HOME points into the
run's work directory, and the run fails if anything creates .cache there.

--trace 0 prints the end-to-end metrics, each timed sample scaled to a
reference machine speed (see CALIBRATION_REFERENCE); --trace 1 runs half
the passes untraced and half with the span wrappers of spans.py, and
prints the per-layer metrics per pass of the list.  The last stdout line
is the JSON result.  --record-digests rewrites this workload's entry in
digests.json from a checked run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

import checks
import harness
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_STARTS = 9
WARM_CACHE = "warm-cache"
# Median seconds of harness.calibrate() on the 2-vCPU VM where the bounds
# were set.  Timings are reported at this machine speed: every timed sample
# (a request, a set-up start) is scaled by speeds() below.  The same request
# there ran up to 1.7x slower for seconds to tens of seconds at a time
# (other tenants of the host); scaling each sample by the speed around it
# takes most of that out of the run-to-run spread.
CALIBRATION_REFERENCE = 0.005

UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "peak_rss_mb": "MB", "success_ratio": "ratio", "setup_s": "s"}


def _digest(out):
    return hashlib.sha256(out).hexdigest()


def speeds(cals):
    """Speed factor of each sample timed between two consecutive entries of
    ``cals``: CALIBRATION_REFERENCE / the median of the four calibrations
    nearest the sample, two before and two after it.  A median, because a
    calibration the scheduler interrupts reads up to four times too long."""
    return [CALIBRATION_REFERENCE
            / statistics.median(cals[max(0, i - 1):i + 3])
            for i in range(len(cals) - 1)]


def environment(args, passes):
    import diracforge.rationals
    matops = sys.modules.get("diracforge.matops")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(),
            "rational_backend": diracforge.rationals.RATIONAL_BACKEND,
            "matops_backend": getattr(matops, "BACKEND_NAME", None),
            "nproc": os.cpu_count(), "commit": commit,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "passes": passes}


def _tree(path):
    """Names, sizes and mtimes under path: enough to see any write."""
    out = {}
    for dirpath, _, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.join(dirpath, f)] = (st.st_size, st.st_mtime_ns)
    return out


class Run:
    """One workload run inside its work directory, which is the cwd."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.reqs, files = workloads.generate(workload, seed)
        for path, text in files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.warm = workload == "characters_warm"
        self.reference = None   # (exit code, stdout) the answers checked
        self.recorded = None    # argv -> committed digest, for that seed
        self.problems = []

    def cache_dir(self, tag, i):
        if self.warm:
            return WARM_CACHE
        return os.path.join("caches", "%s-%d" % (tag, i))

    def fill_warm_cache(self):
        """Run the list once on the empty shared cache: the cold answers."""
        self.reference = []
        for argv in self.reqs:
            r = harness.run_request(argv, WARM_CACHE)
            self.reference.append((r.code, r.out))

    def replay(self, passes, tag, recorder=None, between=None,
               calibrate=False):
        """Run the list ``passes`` times: per-request rows of (exit code,
        stdout digest, latency s, peak RSS KiB, speed).  ``between`` runs
        before each pass and after the last; with ``calibrate`` the machine
        is timed before and after each request and speed is the factor
        that scales the latency to the reference machine speed, else 1."""
        rows = [[] for _ in self.reqs]
        for p in range(passes):
            if between is not None:
                between(p)
            first = []
            done = []
            cals = [harness.calibrate()] if calibrate else []
            for i, argv in enumerate(self.reqs):
                r = harness.run_request(
                    argv, self.cache_dir("%s%d" % (tag, p), i), recorder)
                if calibrate:
                    cals.append(harness.calibrate())
                done.append((r.code, _digest(r.out), r.latency, r.maxrss_kb))
                if self.reference is None:
                    first.append((r.code, r.out))
                if recorder is not None and r.snapshot is not None:
                    recorder.merge(r.snapshot)
            scale = speeds(cals) if calibrate else [1.0] * len(done)
            for per, row, speed in zip(rows, done, scale):
                per.append(row + (speed,))
            if self.reference is None:
                self.reference = first
        if between is not None:
            between(passes)
        return rows

    def failures(self, rows):
        """Failed samples: non-zero exit, a wrong answer, or bytes that
        differ from the checked answer."""
        changed = ("report differs from the cold answer" if self.warm
                   else "report bytes changed between passes")
        bad = 0
        for i, argv in enumerate(self.reqs):
            code, out = self.reference[i]
            reason = checks.check(argv, code, out)
            if reason is None and self.recorded is not None and \
                    self.recorded.get(" ".join(argv)) != _digest(out):
                reason = "report digest differs from digests.json"
            whys = []
            for code, digest, _, _, _ in rows[i]:
                why = reason
                if why is None and code != 0:
                    why = "exit code %s" % code
                if why is None and digest != _digest(out):
                    why = changed
                if why is not None:
                    whys.append(why)
            if whys:
                bad += len(whys)
                self.problems.append("%s: %s (%d of %d samples)" % (
                    " ".join(argv), whys[0], len(whys), len(rows[i])))
        return bad

    def digests(self):
        return [[" ".join(argv), _digest(out)]
                for argv, (_, out) in zip(self.reqs, self.reference)]

    def use_recorded(self, table):
        """Check against the committed digests when they cover this seed."""
        if table is not None and table["seed"] == self.seed:
            key = self.workload.split("_")[0]
            self.recorded = dict(table["requests"].get(key, []))


def _tail(lat):
    """(percentile, samples beyond it, value): the highest whole
    percentile with at least ten samples beyond it (nearest rank)."""
    n = len(lat)
    pct = 100 * (n - 10) // n if n > 10 else 100
    k = math.ceil(pct * n / 100)
    return pct, n - k, sorted(lat)[k - 1]


def list_seconds(rows, scaled=False):
    """Seconds the request list takes: summed latencies, mean over passes;
    ``scaled`` multiplies each latency by its speed factor."""
    return sum(statistics.mean(row[2] * (row[4] if scaled else 1)
                               for row in per) for per in rows)


def timings(rows, starts, scaled):
    """wall_s, latency_p50_ms, latency_tail_ms and setup_s of the rows and
    the (seconds, speed) set-up starts, raw or scaled, and the tail's
    (percentile, samples beyond it)."""
    lat = [row[2] * (row[4] if scaled else 1) for per in rows for row in per]
    pct, beyond, tail = _tail(lat)
    return {"wall_s": list_seconds(rows, scaled),
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_tail_ms": tail * 1000,
            "setup_s": statistics.median(t * (s if scaled else 1)
                                         for t, s in starts)}, (pct, beyond)


def end_to_end(rows, failed, starts):
    values, (pct, beyond) = timings(rows, starts, True)
    raw, _ = timings(rows, starts, False)
    samples = sum(len(per) for per in rows)
    speed = statistics.median([row[4] for per in rows for row in per]
                              + [s for _, s in starts])
    values["peak_rss_mb"] = max(row[3] for per in rows for row in per) / 1024
    values["success_ratio"] = 1 - failed / samples
    notes = {name: "raw %.6g, median machine speed %.3f" % (v, speed)
             for name, v in raw.items()}
    notes["latency_tail_ms"] += ", p%d of %d samples, %d beyond" % (
        pct, samples, beyond)
    notes["success_ratio"] = "failed_ratio %g" % (failed / samples)
    return values, notes


def _load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def execute(args):
    """Run one workload in the cwd: (run, passes, metrics, units, notes,
    attempted, failed)."""
    import diracforge.cli
    if not os.path.abspath(diracforge.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("diracforge was not imported from %s" % SRC)
    passes = workloads.passes_for(args.workload, args.seconds)
    run = Run(args.workload, args.seed)
    if not args.record_digests:
        run.use_recorded(_load_digests())
    if run.warm:
        run.fill_warm_cache()
        filled = _tree(WARM_CACHE)

    if args.trace:
        half = max(1, passes // 2)
        rows = run.replay(half, "u")
        recorder = spans.Recorder()
        recorder.install()
        trows = run.replay(half, "t", recorder)
        metrics = recorder.metrics(half)
        untraced, traced = list_seconds(rows), list_seconds(trows)
        metrics["trace.overhead_ratio"] = traced / untraced
        notes = {"trace.overhead_ratio": "list seconds untraced %.3f, "
                 "traced %.3f" % (untraced, traced)}
        rows = [a + b for a, b in zip(rows, trows)]
        failed = run.failures(rows)
        units = spans.metric_units()
    else:
        # set-up starts are spread over the run, between passes, each
        # scaled by the calibrations around it
        starts = []

        def between(slot):
            n = SETUP_STARTS // (passes + 1) + (
                slot < SETUP_STARTS % (passes + 1))
            seconds, cals = [], [harness.calibrate()]
            for _ in range(n):
                seconds.append(harness.setup_start(SRC))
                cals.append(harness.calibrate())
            starts.extend(zip(seconds, speeds(cals)))

        rows = run.replay(passes, "p", between=between, calibrate=True)
        failed = run.failures(rows)
        metrics, notes = end_to_end(rows, failed, starts)
        units = UNITS

    if run.warm and _tree(WARM_CACHE) != filled:
        run.problems.append("the warm cache was written during the run")
    if os.path.exists(os.path.join(os.environ["HOME"], ".cache")):
        run.problems.append("something wrote to ~/.cache during the run")
    attempted = sum(len(r) for r in rows)
    return run, passes, metrics, units, notes, attempted, failed


def record_digests(run):
    table = _load_digests() or {"seed": run.seed, "requests": {}}
    if table["seed"] != run.seed:
        raise SystemExit("digests.json holds seed %s" % table["seed"])
    table["requests"][run.workload.split("_")[0]] = run.digests()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still kills its request child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "diracforge", "cli.py")):
        print("no diracforge sources under %s" % SRC, file=sys.stderr)
        return 2
    # measure the default path users get
    for var in ("DIRACFORGE_BACKEND", "DIRACFORGE_RATIONAL",
                "DIRACFORGE_CACHE"):
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench-work", "run-%d" % os.getpid())
    os.makedirs(os.path.join(work, "home"))
    os.environ["HOME"] = os.path.join(work, "home")
    try:
        os.chdir(work)
        run, passes, metrics, units, notes, attempted, failed = execute(args)
        correct = not run.problems
        if args.record_digests:
            if not correct:
                raise SystemExit("not recording digests of a failed run")
            record_digests(run)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still works there
    print("environment: %s" % json.dumps(environment(args, passes),
                                         sort_keys=True))
    for line in run.problems[:20]:
        print("FAILED %s" % line)
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        shown = "absent" if value is None else "%.6g" % value
        note = notes.get(name)
        print("%-40s %14s %-6s%s" % (name, shown, unit,
                                     "  (%s)" % note if note else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
