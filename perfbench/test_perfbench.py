"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7)[0] != \
        workloads.generate(workload, 8)[0]


def test_cache_workloads_share_their_list():
    assert workloads.generate("characters_cold", 3) == \
        workloads.generate("characters_warm", 3)


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(27)]
    assert run._tail(lat) == (62, 10, 16.0)
    assert run._tail(lat[:5]) == (100, 0, 4.0)


def test_an_interrupted_calibration_does_not_scale_a_sample():
    ref = run.CALIBRATION_REFERENCE
    cals = [ref, ref, 4 * ref, ref, ref]
    assert run.speeds(cals) == pytest.approx([1, 1, 1, 1])
    assert run.speeds([ref, 3 * ref]) == pytest.approx([0.5])


def test_each_sample_is_scaled_by_the_speed_around_it():
    # per request: (exit code, digest, latency s, peak RSS KiB, speed)
    rows = [[(0, "a", 0.010, 100, 2.0), (0, "a", 0.020, 100, 1.0)],
            [(0, "b", 0.300, 200, 1.0), (0, "b", 0.100, 300, 3.0)]]
    starts = [(0.2, 0.5), (0.1, 1.0), (0.3, 1.0)]
    values, notes = run.end_to_end(rows, 0, starts)
    assert values["wall_s"] == pytest.approx(0.020 + 0.300)
    assert values["latency_p50_ms"] == pytest.approx(160.0)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["peak_rss_mb"] == pytest.approx(300 / 1024)
    assert values["success_ratio"] == 1
    assert notes["wall_s"].startswith("raw 0.215,")


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    return tmp_path


def _answer(argv, sandbox):
    res = harness.run_request(argv, str(sandbox / "cache"))
    return res.code, res.out


def test_corrupted_report_counts_as_failed(sandbox):
    argv = ["verify-kostant", "--type", "A1", "--weight", "2",
            "--format", "json"]
    code, out = _answer(argv, sandbox)
    assert checks.check(argv, code, out) is None
    doc = json.loads(out)
    doc["blocks"][0]["scalar"] = doc["blocks"][0]["expected"] = "9/4"
    wrong = json.dumps(doc).encode()
    assert "scalar" in checks.check(argv, code, wrong)
    assert checks.check(argv, code, out[:-20]) == "report is not JSON"
    assert checks.check(argv, 1, out) == "exit code 1"
    del doc["blocks"]
    assert checks.check(argv, code, json.dumps(doc).encode()).startswith(
        "malformed report")


def test_corrupted_character_counts_as_failed(sandbox):
    argv = ["char", "--type", "B2", "--weight", "1,1", "--format", "json"]
    code, out = _answer(argv, sandbox)
    assert checks.check(argv, code, out) is None
    doc = json.loads(out)
    key = sorted(doc["entries"])[0]
    doc["entries"][key] += 1
    assert "Weyl dimension" in checks.check(argv, code,
                                            json.dumps(doc).encode())


def test_absent_names_report_none(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", (
        ("matops.gone", "diracforge.matops", "no_such_kernel"),
        ("nomodule.f", "diracforge.no_such_module", "f"),
        ("dirac.gone", "diracforge.dirac", "NoClass.method"),
    ))
    rec = spans.Recorder()
    rec.install()
    assert rec.absent == {"matops.gone", "nomodule.f", "dirac.gone"}
    metrics = rec.metrics(1)
    assert metrics["matops.gone.calls"] is None
    assert metrics["nomodule.f.self_s"] is None
    # a counter whose hook no longer fits the program's types goes blind
    assert metrics["reps.max_dim"] == 0
    rec.broken.add("reps.buildLieRep")
    assert rec.metrics(1)["reps.max_dim"] is None


def test_metric_count_fits_the_contract():
    assert len(spans.metric_units()) <= 128


_TRACED = r"""
import json, os, sys
sys.path[:0] = [%r, %r]
import diracforge.cli, harness, spans
rec = spans.Recorder()
rec.install()
res = harness.run_request(%r, "cache", rec)
print(json.dumps({"code": res.code, "latency": res.latency,
                  "snapshot": res.snapshot}))
"""


def test_span_self_times_add_up_to_wall_time(sandbox):
    argv = ["verify-relative", "--pair", "A2:u2", "--weight", "1,0",
            "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED % (HERE, SRC, argv)],
        capture_output=True, text=True, check=True, cwd=str(sandbox))
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["code"] == 0
    stats = got["snapshot"]["stats"]
    self_sum = sum(s[1] for s in stats.values())
    hooks = got["snapshot"]["counters"]["hook_s"]
    main_busy = stats["cli.main"][2]
    # self times tile the root span; the tracer's own hooks fill the rest
    assert self_sum + hooks == pytest.approx(main_busy, rel=1e-6)
    assert stats["exactmat.add"][0] > 0 and stats["cli.main"][0] == 1
    # what the root span misses is fork, argument handling and exit
    uncovered = got["latency"] - main_busy
    assert 0 <= uncovered < 0.05 + 0.1 * got["latency"]


def test_committed_baseline_matches_the_reanchor_figures():
    with open(os.path.join(HERE, "BENCH_baseline.json")) as fh:
        bench = json.load(fh)
    ref = bench["reference_requests"]
    # ROADMAP re-anchor: A2 (1,1) Kostant 4.1 s; A2:u2 --lambda-max 1 1.0 s
    assert 0.5 * 4.1 <= ref["verify-kostant --type A2 --weight 1,1"] <= 2 * 4.1
    assert 0.5 * 1.0 <= ref["verify-relative --pair A2:u2 --lambda-max 1"] \
        <= 2 * 1.0
    env = bench["environment"]
    for key in ("python", "rational_backend", "matops_backend", "nproc",
                "commit", "seed"):
        assert key in env
    for workload in workloads.WORKLOADS:
        e2e = bench["workloads"][workload]["end_to_end"]
        assert e2e["success_ratio"]["value"] == 1.0
