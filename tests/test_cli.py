import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import diracforge
from diracforge import cache, cli

from diracforge.characters import ConeSeries, FormalCharacter
from diracforge.cli import SUBCOMMANDS, build_parser, main
from diracforge.errors import InternalError, QRViolation
from diracforge.liecore import RootSystem, systemFromLabel, weightFromStrings
from diracforge.qr import cp1, cp2

from helpers import oldCacheDocument, oldCharReport, oracleWeights

# the reader itself; the fixture below wraps the module's name in a check
read_canonical = cli._read_canonical


def argparse_reading(parser, argv):
    """vars(parser.parse_args(argv)), or None where argparse exits; what
    it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


@pytest.fixture(autouse=True)
def canonical_reads_match_argparse(monkeypatch):
    """Every argv a test here passes to main is read by the canonical
    reader exactly as argparse reads it, func included; the reader
    declines just the argv that argparse refuses or answers with help."""
    parser = build_parser()  # built before a test can break argparse
    def checked(argv):
        got = read_canonical(argv)
        assert (None if got is None else vars(got)) \
            == argparse_reading(parser, argv)
        return got

    monkeypatch.setattr(cli, "_read_canonical", checked)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def runj(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    return rc, json.loads(out) if out.strip() else None, err


@pytest.fixture
def cp1_model(tmp_path):
    path = tmp_path / "cp1_k4.json"
    path.write_text(json.dumps(cp1(4).toDict()))
    return str(path)


# ------------------------------------------------------------ frozen runs

def test_verify_kostant_su2_sweep(capsys):
    rc, doc, _ = runj(capsys, "verify-kostant", "--type", "A1",
                      "--lambda-max", "3")
    assert rc == 0
    assert doc["scalars"] == {"0": "1/2", "1": "2", "2": "9/2", "3": "8"}
    assert doc["allMatch"] is True
    assert doc["normalization"] == "long-root-2"
    assert doc["cliffordSign"] == "minus"
    assert "e^{-k w}" in doc["polarizationRule"]


def test_induct_zero_weight_prints_zero(capsys):
    rc, out, _ = run(capsys, "induct", "--pair", "A1:T", "--weight", "0")
    assert rc == 0
    assert out == "0\n"


def test_qr_toric_frozen(capsys, cp1_model):
    rc, doc, _ = runj(capsys, "qr-toric", "--model", cp1_model,
                      "--xi", "1", "--c", "2")
    assert rc == 0
    assert doc["mult0"] == 1 and doc["reduced"] == 1
    assert doc["match"] is True


# ---------------------------------------------------------- happy paths

def test_root_system_report(capsys):
    rc, doc, _ = runj(capsys, "root-system", "--type", "A2")
    assert rc == 0
    assert doc["rank"] == 2 and doc["positiveRootCount"] == 3
    assert doc["weylGroupOrder"] == 6 and doc["groupDimension"] == 8


def test_orbit_size(capsys):
    rc, doc, _ = runj(capsys, "orbit", "--type", "A2", "--weight", "1,0")
    assert rc == 0
    assert doc["orbitSize"] == 3 and len(doc["orbit"]) == 3


def test_char_writes_loadable_file(capsys, tmp_path):
    out = tmp_path / "a2.chr"
    rc, doc, _ = runj(capsys, "char", "--type", "A2", "--weight", "1,1",
                      "--out", str(out), "--cache-dir",
                      str(tmp_path / "cache"))
    assert rc == 0 and doc["dimension"] == 8
    chi = FormalCharacter.from_lines(out.read_text().splitlines())
    assert chi.dimension() == 8


def test_tensor_text(capsys):
    rc, out, _ = run(capsys, "tensor", "--type", "A1", "--lhs", "1",
                     "--rhs", "1")
    assert rc == 0
    assert out == "1 V(0)\n1 V(2)\n"


def test_restrict_report(capsys):
    rc, doc, _ = runj(capsys, "restrict", "--pair", "A2:u2",
                      "--weight", "1,0")
    assert rc == 0
    assert doc["entries"] == {"0,-2": 1, "1,1": 1}


def test_induct_roundtrip_through_files(capsys, tmp_path):
    chr_path = tmp_path / "res.chr"
    rc, _, _ = run(capsys, "restrict", "--pair", "A1:T", "--weight", "3",
                   "--out", str(chr_path))
    assert rc == 0
    rc, out, _ = run(capsys, "induct", "--pair", "A1:T",
                     "--input", str(chr_path))
    assert rc == 0
    assert out == "0\n"


def test_verify_relative_single(capsys):
    rc, doc, _ = runj(capsys, "verify-relative", "--pair", "A1:T",
                      "--weight", "2")
    assert rc == 0
    (one,) = doc["runs"]
    assert one["kernelCandidates"] == ["-3", "3"]
    assert all(b["match"] for b in one["blocks"])


def test_verify_requests_leave_the_cache_empty(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    for argv in (("verify-kostant", "--type", "A2", "--weight", "1,0"),
                 ("verify-relative", "--pair", "A2:T", "--weight", "1,1")):
        rc, _, _ = run(capsys, *argv, "--cache-dir", str(cache_dir))
        assert rc == 0
        assert list(cache_dir.iterdir()) == [], argv
    # a character request on the same directory does store its entry
    rc, _, _ = run(capsys, "char", "--type", "A2", "--weight", "1,0",
                   "--cache-dir", str(cache_dir))
    assert rc == 0 and list(cache_dir.iterdir()) != []


def test_restrict_to_the_torus_of_a_torus_factor_pair(capsys):
    # the H-coordinates of A1xT1:T are the A1 charge, then the T1 coordinate
    rc, out, _ = run(capsys, "restrict", "--pair", "A1xT1:T",
                     "--weight", "1,2")
    assert rc == 0
    assert out == "T2 irreducible-basis\n-1,2 1\n1,2 1\n"


def test_induct_on_a_torus_factor_pair(capsys):
    rc, out, _ = run(capsys, "induct", "--pair", "A1xT1:T", "--weight", "1,2")
    assert rc == 0
    assert out == "+1 V(0,2)\n"


def test_verify_relative_on_a_torus_factor_pair(capsys):
    rc, out, _ = run(capsys, "verify-relative", "--pair", "A1xT1:T",
                     "--weight", "1,2")
    assert rc == 0
    assert out == "lambda (1,2): 3 blocks ok, kernel at [-2,2; 2,2]\n"


def test_polarize_emits_series_file(capsys, tmp_path):
    out = tmp_path / "fiber.series"
    rc, doc, _ = runj(capsys, "polarize", "--type", "T1", "--fiber", "1",
                      "--alpha", "1", "--shift", "1", "--window", "4",
                      "--strict", "--out", str(out))
    assert rc == 0
    assert doc["vanishing"] == {"strict": True, "polarized": True,
                                "trivialCoefficient": 0}
    series = ConeSeries.from_lines(out.read_text().splitlines())
    assert {int(w[0]): m for w, m in series.entries.items()} == \
        {k: -1 for k in range(2, 6)}


def test_qr_coadjoint_with_product(capsys):
    rc, doc, _ = runj(capsys, "qr-coadjoint", "--type", "A2",
                      "--weight", "1,1", "--mu", "1,1")
    assert rc == 0
    assert doc["quantization"] == {"1,1": 1}
    assert doc["product"]["multiplicity"] == 1


def test_decompose_writes_component_files(capsys, tmp_path, cp1_model):
    out = tmp_path / "dec"
    rc, doc, _ = runj(capsys, "decompose", "--model", cp1_model,
                      "--xi", "1", "--c", "2", "--window", "8",
                      "--out", str(out))
    assert rc == 0
    assert [r["terms"] for r in doc["components"]] == [6, 17, 6]
    assert (out / "report.json").exists()
    for row in doc["components"]:
        lines = (out / row["file"]).read_text().splitlines()
        series = ConeSeries.from_lines(lines)
        assert len(series.entries) == row["terms"]


def test_cache_stats_and_clear(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    rc, doc, _ = runj(capsys, "cache", "stats", "--cache-dir", cache_dir)
    assert rc == 0 and doc["entries"] == 0
    rc, _, _ = run(capsys, "char", "--type", "A2", "--weight", "1,1",
                   "--cache-dir", cache_dir)
    assert rc == 0
    rc, doc, _ = runj(capsys, "cache", "stats", "--cache-dir", cache_dir)
    assert doc["entries"] >= 1
    rc, doc, _ = runj(capsys, "cache", "clear", "--cache-dir", cache_dir)
    assert rc == 0 and doc["entriesAfter"] == 0
    rc, doc, _ = runj(capsys, "cache", "stats", "--cache-dir", cache_dir)
    assert doc["entries"] == 0


def test_cache_dir_option_does_not_leak_into_environ(capsys, tmp_path):
    before = dict(os.environ)
    cache_dir = tmp_path / "scoped"
    rc, _, _ = run(capsys, "char", "--type", "A2", "--weight", "1,1",
                   "--cache-dir", str(cache_dir))
    assert rc == 0
    assert dict(os.environ) == before
    assert list(cache_dir.rglob("*.json"))  # the run used the directory
    assert cache.cache_dir() == before[cache.ENV_VAR]


def test_cache_env_var_respected(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DIRACFORGE_CACHE", str(tmp_path / "envcache"))
    rc, doc, _ = runj(capsys, "cache", "stats")
    assert rc == 0
    assert doc["directory"].endswith("envcache")


def test_reports_are_byte_identical(capsys, tmp_path):
    argv = ["char", "--type", "A2", "--weight", "2,0",
            "--cache-dir", str(tmp_path / "cache"), "--format", "json"]
    rc = main(list(argv))
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(list(argv))  # second run hits the cache
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second


@pytest.mark.parametrize("label,weight", [
    ("D4", "1,1,2,1"), ("B2", "2,3"), ("A1xT1", "2,-5"), ("T2", "3,-1")])
@pytest.mark.parametrize("fmt,out", [("json", False), ("json", True),
                                     ("text", False), ("text", True)])
def test_char_bytes_match_the_tuple_route(capsys, tmp_path, label, weight,
                                          fmt, out):
    rs = systemFromLabel(label)
    lam = weightFromStrings(weight.split(","))
    weights = oracleWeights(rs, lam)
    cache_dir = tmp_path / "cache"
    for run_no in ("cold", "warm"):
        argv = ["char", "--type", label, "--weight", weight,
                "--format", fmt, "--cache-dir", str(cache_dir)]
        path = str(tmp_path / ("%s.chr" % run_no)) if out else None
        if out:
            argv += ["--out", path]
        want, lines = oldCharReport(rs, lam, weights, fmt, path)
        assert run(capsys, *argv) == (0, want, "")
        if out:
            assert pathlib.Path(path).read_text() == "\n".join(lines) + "\n"
        (entry,) = cache_dir.rglob("*.json")
        assert entry.read_text() == oldCacheDocument(rs, lam, weights)


# ------------------------------------------------------------ exit codes

def test_strict_polarization_failure_exits_one(capsys):
    rc, out, _ = run(capsys, "polarize", "--type", "T1", "--fiber", "-1",
                     "--alpha", "1", "--shift", "0", "--window", "3",
                     "--strict")
    assert rc == 1
    assert "PolarizationViolated" in out


def test_verification_failure_json_witness(capsys, cp1_model,
                                           monkeypatch):
    def boom(model, xi, c, window=None):
        raise QRViolation("left and right disagree at level 2")
    monkeypatch.setattr("diracforge.cli.qrCheckCircle", boom)
    rc, doc, _ = runj(capsys, "qr-toric", "--model", cp1_model,
                      "--xi", "1", "--c", "2")
    assert rc == 1
    assert doc["error"] == "QRViolation"
    assert "level 2" in doc["witness"]


def test_singular_level_is_usage_error(capsys, cp1_model):
    rc, _, err = run(capsys, "qr-toric", "--model", cp1_model,
                     "--xi", "1", "--c", "4")
    assert rc == 2
    assert "critical value" in err


def test_fractional_circle_direction_is_usage_error(capsys, cp1_model,
                                                    tmp_path):
    # 3/2 used to be truncated to the direction 1 and answered for it
    out_dir = tmp_path / "components"
    for argv in (("qr-toric",),
                 ("decompose", "--window", "4", "--out", str(out_dir))):
        rc, out, err = run(capsys, *argv, "--model", cp1_model,
                           "--xi", "3/2", "--c", "2")
        assert rc == 2 and out == ""
        assert "coordinate 1 is 3/2" in err
    assert not out_dir.exists()


def test_unknown_normalization_rejected(capsys):
    rc, _, err = run(capsys, "root-system", "--type", "A1",
                     "--normalization", "short-root-2")
    assert rc == 2
    assert "long-root-2" in err


def test_nonpositive_window_rejected(capsys, cp1_model):
    rc, _, err = run(capsys, "qr-toric", "--model", cp1_model,
                     "--xi", "1", "--c", "2", "--window", "0")
    assert rc == 2
    assert "window" in err


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_internal_fault_exits_three(capsys, monkeypatch):
    def broken(rs, lam):
        raise InternalError("vanishing Freudenthal denominator")
    monkeypatch.setattr("diracforge.characters._freudenthal", broken)
    rc, out, err = run(capsys, "char", "--type", "A2", "--weight", "1,1")
    assert rc == 3 and out == ""
    assert err == "internal error: vanishing Freudenthal denominator\n"


def test_internal_check_survives_optimized_mode(tmp_path):
    # a bare assert would vanish under -O; a frame whose root direction has
    # the wrong length must still stop the run
    script = (
        "import sys\n"
        "from diracforge import structure\n"
        "from diracforge.cli import main\n"
        "plain = structure.CompactFrame._build_directions\n"
        "def stretched(self):\n"
        "    plain(self)\n"
        "    k = self.names.index(next(n for n in self.names if n[0] == 'A'))\n"
        "    mats = list(self.matrices)\n"
        "    mats[k] = mats[k].scale(2)\n"
        "    self.matrices = tuple(mats)\n"
        "structure.CompactFrame._build_directions = stretched\n"
        "sys.exit(main(['verify-kostant', '--type', 'A1', '--weight', '0']))\n")
    env = dict(os.environ, DIRACFORGE_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=str(pathlib.Path(diracforge.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr == ("internal error: root direction A(2) has squared"
                           " length 8, not 2\n")


# -------------------------------------------------- one subparser per request

def _parse_outcome(capsys, call):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["--help"], ["char", "--help"], ["char", "--weight", "1"],
    ["char", "--type", "A1", "--weight", "1", "--bogus"],
    ["induct", "--pair", "A1:T"], ["cache", "purge"],
    ["no-such-command"], [],
    ["orbit", "--type", "A2", "--weight", "-1,2"],
    ["verify-kostant", "--type", "A1", "--lambda-max", "x"],
    ["induct", "--pair", "A1:T", "--weight", "1", "--input", "x.chr"],
    ["char", "--type", "A1", "--weight", "1", "-h"],
    ["cache", "stats", "action", "clear"],
], ids=["help", "char-help", "missing-type", "unrecognized", "exclusive",
        "bad-choice", "unknown-command", "no-arguments", "dash-value",
        "bad-int", "both-exclusive", "help-after-options",
        "positional-name"])
def test_one_subparser_prints_what_the_full_parser_prints(capsys, argv):
    full = _parse_outcome(capsys, lambda: build_parser().parse_args(argv))
    assert _parse_outcome(capsys, lambda: main(list(argv))) == full
    assert full[0] in (0, 2) and full[1] + full[2]


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_only_the_named_subparser_is_built():
    assert _subcommands(build_parser()) == list(SUBCOMMANDS)
    for name in SUBCOMMANDS:
        assert _subcommands(build_parser(name)) == [name]


def test_model_parse_error_names_file_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc, _, err = run(capsys, "qr-toric", "--model", str(bad),
                     "--xi", "1", "--c", "0")
    assert rc == 2
    assert "bad.json:1:" in err


def test_model_field_error_names_halfspace(capsys, tmp_path):
    bad = tmp_path / "nooff.json"
    bad.write_text(json.dumps({"halfspaces": [{"normal": [1]}]}))
    rc, _, err = run(capsys, "qr-toric", "--model", str(bad),
                     "--xi", "1", "--c", "0")
    assert rc == 2
    assert "nooff.json" in err and "halfspace 0" in err
    # fields of the wrong type; [1.5] and [true] used to be truncated to
    # the normal [1] and answered
    other = [{"normal": [-1], "offset": 2}]
    for doc, says in [
            ({"halfspaces": 3}, "'halfspaces' is not a list"),
            ({"halfspaces": [{"normal": 5, "offset": 0}] + other},
             "halfspace 0: normal 5 is not a list of integers"),
            ({"halfspaces": [{"normal": ["x"], "offset": 0}] + other},
             "halfspace 0: normal ['x'] is not a list of integers"),
            ({"halfspaces": [{"normal": [1], "offset": 0}] + other,
              "dimension": "x"},
             "dimension 'x' is not a non-negative integer"),
            ({"halfspaces": [{"normal": [1.5], "offset": 0}] + other},
             "halfspace 0: normal [1.5] is not a list of integers"),
            ({"halfspaces": [{"normal": [True], "offset": 0}] + other},
             "halfspace 0: normal [True] is not a list of integers")]:
        bad.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "qr-toric", "--model", str(bad),
                           "--xi", "1", "--c", "1")
        assert (rc, out, err) == (2, "", "error: %s: %s\n" % (bad, says))


@pytest.mark.parametrize("argv", [
    ("restrict", "--pair", "A2:keep=x", "--weight", "1,0"),
    ("verify-relative", "--pair", "A2:keep=x", "--weight", "0,0"),
], ids=["restrict", "verify-relative"])
def test_bad_keep_spec_is_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == "error: keep index 'x' is not an integer\n"


def test_character_parse_error_names_line(capsys, tmp_path):
    # lines are numbered as they stand in the file, blank ones included
    bad = tmp_path / "bad.chr"
    for text, where in [
            ("T1 irreducible-basis\n3 1\nfoo bar\n", "3: expected"),
            ("A1 weight-basis\n\n1 1\n\nx 2\n", "5: expected"),
            ("\n\nT1 irreducible-basis\n3 1\n1/0 1\n", "5: expected"),
            ("\nA1 half-basis\n1 1\n", "2: bad header field"),
            ("\n\nA1 cone-series polarizer=1\n\n1 1\n",
             "3: bad header field")]:
        bad.write_text(text)
        rc, _, err = run(capsys, "induct", "--pair", "A1:T",
                         "--input", str(bad))
        assert rc == 2
        assert "bad.chr:%s" % where in err


# -------------------------------------------- pairings per series entry

@pytest.fixture
def inner_products(monkeypatch):
    """A counter of RootSystem.innerProduct calls."""
    calls = [0]
    plain = RootSystem.innerProduct

    def counted(self, lam, mu):
        calls[0] += 1
        return plain(self, lam, mu)

    monkeypatch.setattr(RootSystem, "innerProduct", counted)
    return calls


def test_polarize_pairs_per_fiber_weight_not_per_entry(capsys,
                                                       inner_products):
    fiber = ["1,0,0", "0,1,0", "0,0,1"]
    rc, doc, _ = runj(capsys, "polarize", "--type", "T3",
                      "--fiber", ";".join(fiber), "--alpha", "3,1,2",
                      "--window", "35")
    assert rc == 0 and doc["terms"] > 900
    assert inner_products[0] <= 2 * len(fiber)


@pytest.mark.parametrize("argv", [
    ("restrict", "--pair", "A2:T", "--weight", "2,3"),
    ("tensor", "--type", "B2", "--lhs", "1,1", "--rhs", "2,1"),
], ids=["restrict", "tensor"])
def test_decompositions_pair_on_ints(capsys, inner_products, argv):
    for _ in ("cold", "warm"):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out
    assert inner_products[0] == 0


def test_qr_toric_pairs_per_vertex_not_per_entry(capsys, tmp_path,
                                                 inner_products):
    model = cp2(4)
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(model.toDict()))
    rc, doc, _ = runj(capsys, "qr-toric", "--model", str(path),
                      "--xi", "1,2", "--c", "3")
    assert rc == 0 and doc["match"] is True
    assert sum(row["terms"] for row in doc["components"]) > 100
    assert inner_products[0] <= 2 * len(model.vertices)


# ------------------------------------------------- canonical argv reader

WORKLOADS_FILE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


def load_workloads():
    """The benchmark's request generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_argv(seeds):
    """Each CLI request of the four workloads over seeds, as the benchmark
    passes it to main; the library oracle requests are not CLI argv."""
    wl = load_workloads()
    for workload in wl.WORKLOADS:
        for seed in seeds:
            for argv in wl.generate(workload, seed)[0]:
                if argv[0] != wl.ORACLE:
                    yield argv + ["--cache-dir", "cache"]


def test_reader_returns_argparse_namespace_on_every_workload_request():
    parser = build_parser()
    seen = set()
    for argv in workload_argv(range(50)):
        got = read_canonical(argv)
        assert got is not None, argv
        assert vars(got) == argparse_reading(parser, argv)
        seen.add(argv[0])
    assert len(seen) == 10


def _mutated(rng, argv):
    """argv after one to three edits: a token dropped, duplicated,
    abbreviated or =-joined to the next, an option moved to the end, two
    tokens swapped, or -h, --, -1,2, -5 and the like put in."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(argv))
        kind = rng.randrange(7)
        if kind == 0 and len(argv) > 1:
            del argv[at]
        elif kind == 1:
            argv.insert(rng.randrange(len(argv) + 1), argv[at])
        elif kind == 2 and argv[at].startswith("--") and len(argv[at]) > 3:
            argv[at] = argv[at][:rng.randint(3, len(argv[at]) - 1)]
        elif kind == 3 and argv[at].startswith("--") and at + 1 < len(argv):
            argv[at:at + 2] = ["%s=%s" % tuple(argv[at:at + 2])]
        elif kind == 4 and argv[at].startswith("--"):  # option to the end
            argv += argv[at:at + 2]
            del argv[at:at + 2]
        elif kind == 4:
            other = rng.randrange(len(argv))
            argv[at], argv[other] = argv[other], argv[at]
        elif kind == 5:
            argv.insert(at, rng.choice(["-h", "--", "-1,2", "-5"]))
        else:
            argv[at] = rng.choice(["-1,2", "-5", "-0", "-", "--help"])
    return argv


def test_reader_matches_argparse_or_declines_on_mutated_argv():
    parser = build_parser()
    rng = random.Random(25)
    bases = list(workload_argv(range(3)))
    outcomes = {"read": 0, "declined, argparse reads": 0,
                "declined, argparse exits": 0}
    for _ in range(1500):
        argv = _mutated(rng, rng.choice(bases))
        got = read_canonical(argv)
        want = argparse_reading(parser, argv)
        if got is not None:
            assert vars(got) == want, argv
            outcomes["read"] += 1
        else:
            outcomes["declined, argparse %s" % (
                "reads" if want else "exits")] += 1
    # every kind of outcome happens, so the fuzz is not vacuous
    assert min(outcomes.values()) >= 50, outcomes


def test_no_argparse_parser_is_built_for_canonical_argv(capsys, monkeypatch,
                                                        tmp_path, cp1_model):
    def refuse(self, *args, **kwargs):
        raise AssertionError("argparse parser built for canonical argv")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    chr_path = tmp_path / "a1.chr"
    requests = [
        ("root-system", "--type", "A2"),
        ("orbit", "--type", "T1", "--weight", "-5"),
        ("char", "--type", "A1", "--weight", "1", "--out", str(chr_path)),
        ("tensor", "--type", "A1", "--lhs", "1", "--rhs", "2"),
        ("restrict", "--pair", "A2:u2", "--weight", "1,0"),
        ("induct", "--pair", "A1:T", "--input", str(chr_path)),
        ("verify-kostant", "--type", "A1", "--lambda-max", "1"),
        ("verify-relative", "--pair", "A1:T", "--weight", "1"),
        ("polarize", "--type", "T1", "--fiber", "1", "--alpha", "1",
         "--window", "3", "--strict"),
        ("qr-toric", "--model", cp1_model, "--xi", "1", "--c", "2"),
        ("qr-coadjoint", "--type", "A2", "--weight", "1,1"),
        ("decompose", "--model", cp1_model, "--xi", "1", "--c", "2",
         "--window", "8", "--out", str(tmp_path / "dec")),
        ("cache", "stats", "--seed", "3"),
    ]
    assert [argv[0] for argv in requests] == list(SUBCOMMANDS)
    for argv in requests:
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert (rc, err) == (0, "") and json.loads(out), argv


def test_importing_the_cli_does_not_import_argparse():
    src = pathlib.Path(diracforge.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, diracforge.cli\n"
                               "print('argparse' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


# ------------------------------------------------------------ JSON emitter

def _random_text(rng):
    return "".join(rng.choice("aZ09 ,;/\\\"\n\téλ☃\U0001d11e")
                   for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    return rng.choice([rng.randint(-10 ** 30, 10 ** 30), True, False, None,
                       0, 0.5, _random_text(rng)])


def _random_doc(rng, depth):
    """Scalars, empty and non-empty dicts, lists and tuples, and lists of
    dicts, nested up to depth."""
    if depth <= 0 or rng.random() < 0.3:
        return _random_scalar(rng)
    size = rng.choice([0, 1, 2, 5, 12])
    kind = rng.randrange(4)
    if kind == 0:
        return {_random_text(rng): _random_doc(rng, depth - 1)
                for _ in range(size)}
    items = [_random_doc(rng, depth - 1) for _ in range(size)]
    if kind == 1:
        return tuple(items)
    if kind == 2:  # a list of dicts, as report rows are
        return [{_random_text(rng): _random_doc(rng, depth - 2)
                 for _ in range(rng.randint(0, 3))} for _ in range(size)]
    return items


def emitted(doc, write_json=cli._write_json):
    buf = io.StringIO()
    write_json(buf, doc)
    return buf.getvalue()


def test_emitter_matches_json_dumps_on_random_documents():
    rng = random.Random(7)
    for _ in range(400):
        doc = _random_doc(rng, 4)
        assert emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) \
            + "\n"


def test_emitter_matches_json_dumps_on_every_seed_zero_report(
        capsys, monkeypatch, tmp_path):
    wl = load_workloads()
    monkeypatch.chdir(tmp_path)
    reports = []

    def checked(stream, doc):
        text = emitted(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        reports.append(doc)
        stream.write(text)

    monkeypatch.setattr(cli, "_write_json", checked)
    requests = []
    for workload in ("kostant", "relative", "characters_cold"):
        argvs, files = wl.generate(workload, 0)
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text)
        requests += [argv for argv in argvs if argv[0] != wl.ORACLE]
    for argv in requests:
        assert main(argv + ["--cache-dir", "cache"]) == 0, argv
        json.loads(capsys.readouterr().out)
    # every request prints one report; decompose also writes report.json
    decompositions = sum(argv[0] == "decompose" for argv in requests)
    assert len(reports) == len(requests) + decompositions
