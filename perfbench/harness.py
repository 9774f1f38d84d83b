"""Closed-loop request execution, one forked child per request.

The parent imports diracforge once; each request then runs in a fresh
fork, so no in-process state (memo, cache object, lazily built table)
survives from one request to the next, exactly as between two CLI
invocations.  Only one child runs at a time (concurrency 1).  A child runs
``diracforge.cli.main(argv)`` with its stdout on a pipe, and sends its span
snapshot, when tracing, on a second pipe.
"""

import gc
import json
import os
import selectors
import signal
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

from workloads import ORACLE

REQUEST_TIMEOUT = 100.0


class Result:
    __slots__ = ("code", "out", "latency", "maxrss_kb", "snapshot")

    def __init__(self, code, out, latency, maxrss_kb, snapshot):
        self.code = code
        self.out = out
        self.latency = latency
        self.maxrss_kb = maxrss_kb
        self.snapshot = snapshot


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def induction_oracle(argv):
    """Library cross-oracle: kernelIndex(pair, {mu: 1}) == diracInduct."""
    import diracforge
    label, text = _opt(argv, "--pair"), _opt(argv, "--weight")
    pair = diracforge.pairFromLabel(label)
    mu = tuple(int(x) for x in text.split(","))

    def entries(chi):
        return {",".join(str(c) for c in w): m
                for w, m in sorted(chi.entries.items())}

    doc = {"pair": label, "mu": text,
           "kernelIndex": entries(diracforge.kernelIndex(pair, {mu: 1})),
           "diracInduct": entries(diracforge.diracInduct(pair, mu))}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if doc["kernelIndex"] == doc["diracInduct"] else 1


def _dispatch(argv, cache_dir):
    if argv[0] == ORACLE:
        # the library route has no --cache-dir; this is its documented twin
        os.environ["DIRACFORGE_CACHE"] = cache_dir
        return induction_oracle(argv[1:])
    import diracforge.cli
    return diracforge.cli.main(list(argv) + ["--cache-dir", cache_dir])


def _child(argv, cache_dir, out_w, meta_w, recorder):
    code = 70
    try:
        os.dup2(out_w, 1)
        os.close(out_w)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        if recorder is not None:
            recorder.reset()
        code = _dispatch(argv, cache_dir) or 0
        sys.stdout.flush()
        if recorder is not None:
            data = memoryview(json.dumps(recorder.snapshot()).encode())
            while data:
                data = data[os.write(meta_w, data):]
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
        code = 70
    finally:
        try:
            sys.stdout.flush()
        finally:
            os._exit(code)


def _drain(fds, deadline):
    """Read every fd to EOF; None on timeout."""
    chunks = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                return None
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return [b"".join(chunks[fd]) for fd in fds]


def run_request(argv, cache_dir, recorder=None):
    """Fork, run one request, and time it from fork to child exit."""
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    meta_r, meta_w = os.pipe()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(out_r)
        os.close(meta_r)
        _child(argv, cache_dir, out_w, meta_w, recorder)
    os.close(out_w)
    os.close(meta_w)
    try:
        got = _drain([out_r, meta_r], t0 + REQUEST_TIMEOUT)
        if got is None:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(out_r)
        os.close(meta_r)
    _, status, usage = os.wait4(pid, 0)
    latency = perf_counter() - t0
    if got is None:
        return Result("timeout", b"", latency, usage.ru_maxrss, None)
    out, meta = got
    snapshot = json.loads(meta) if meta else None
    return Result(os.waitstatus_to_exitcode(status), out, latency,
                  usage.ru_maxrss, snapshot)


def setup_start(src):
    """Seconds for a fresh interpreter to start and import diracforge.cli."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import diracforge.cli"], env=env,
                   check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def calibrate():
    """Seconds of a fixed interpreter task (Fraction arithmetic and dict
    stores, the diet of diracforge's hot loops), run in the parent between
    requests.  The calibrations around a request measure how fast the
    machine was while it ran (run.speeds); the collector is off so the
    parent's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 800):
            acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, i % 7 + 1)
            table[i % 50, i % 7] = acc
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
