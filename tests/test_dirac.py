import itertools
import json

import pytest

from diracforge import clifford, dirac, structure
from diracforge.characters import FormalCharacter
from diracforge.cli import main
from diracforge.clifford import buildCliffordFrame
from diracforge.dirac import (BadOperator, DiracOperator, RelativePieces,
                              cubicDirac, kernelIndex, piCasimir,
                              relativeCubicDirac, spectralCheckRelative,
                              verifyKostantIdentity)
from diracforge.errors import DimensionMismatch, SpectralMismatch, TooLarge
from diracforge.exactmat import ExactMatrix
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.rationals import rat
from diracforge.reps import buildLieRep

from helpers import buildClifford, qSweepReport


def frame_clifford(rep):
    fr = rep.frame
    hints = tuple((i, i + 1) for i, nm in enumerate(fr.names) if nm[0] == "A")
    return buildCliffordFrame(fr.gram, hints)


def build(label, lam):
    rep = buildLieRep(systemFromLabel(label), lam)
    return rep, frame_clifford(rep)


# --------------------------------------------------------- full operator

@pytest.mark.parametrize("lam,want", [
    ((0,), rat(1, 2)),
    ((1,), rat(2)),
    ((2,), rat(9, 2)),
    ((3,), rat(8)),
])
def test_su2_square_scalars(lam, want):
    rep, cl = build("A1", lam)
    report = verifyKostantIdentity(rep, cl)
    assert report["scalar"] == want
    assert report["expected"] == want
    assert report["scalarMatches"]


def test_su3_trivial_square_scalar():
    rep, cl = build("A2", (0, 0))
    report = verifyKostantIdentity(rep, cl)
    assert report["scalar"] == 2
    assert report["scalarMatches"]


def test_torus_square_scalar():
    rep, cl = build("T2", (2, -1))
    report = verifyKostantIdentity(rep, cl)
    assert report["scalar"] == 5
    assert report["readings"] == {"piOnly": "0", "tensorDiagonal": "0"}
    assert report["matchedCandidates"] == ["rhoNormSquared",
                                           "twelfthAdjointTrace"]


def test_affine_constant_audit_su2():
    # the pi-only reading lands on both candidate constants (they agree by
    # the strange formula); the tensor-diagonal reading is only constant at
    # lambda = 0, and there it gives a different number
    rep, cl = build("A1", (0,))
    report = verifyKostantIdentity(rep, cl)
    assert report["readings"]["piOnly"] == "1/2"
    assert report["readings"]["tensorDiagonal"] == "-1"
    assert report["candidates"] == {"rhoNormSquared": "1/2",
                                    "twelfthAdjointTrace": "1/2"}
    assert report["affineConstant"] == "1/2"
    assert report["matchedCandidates"] == ["rhoNormSquared",
                                           "twelfthAdjointTrace"]

    rep, cl = build("A1", (1,))
    report = verifyKostantIdentity(rep, cl)
    assert report["readings"]["piOnly"] == "1/2"
    assert report["readings"]["tensorDiagonal"] == "failure"


def test_spin_map_built_once_per_kostant_check(monkeypatch):
    # the spin map (and its structure-constant checks) depends only on the
    # frame and the module; the audit reuses the one cubicDirac built
    rep, cl = build("A2", (1, 0))
    calls = []
    real = dirac.spinRepresentation

    def counting(structure, module):
        calls.append(structure)
        return real(structure, module)

    monkeypatch.setattr(dirac, "spinRepresentation", counting)
    assert verifyKostantIdentity(rep, cl)["scalarMatches"]
    assert len(calls) == 1


def test_q_sweep_scalar_only_at_third():
    rep, cl = build("A1", (1,))
    assert qSweepReport(rep, cl) == {
        "1/3": "2", "1/2": "non-scalar", "0": "non-scalar", "1": "non-scalar",
    }


@pytest.mark.parametrize("lam,want", [
    ((0,), rat(0)),
    ((1,), rat(3, 2)),
    ((2,), rat(4)),
    ((3,), rat(15, 2)),
])
def test_pi_casimir_su2(lam, want):
    rep = buildLieRep(systemFromLabel("A1"), lam)
    assert piCasimir(rep) == ExactMatrix.identity(rep.dimension).scale(want)


def test_pi_casimir_adjoint_su3():
    rep = buildLieRep(systemFromLabel("A2"), (1, 1))
    assert piCasimir(rep) == ExactMatrix.identity(8).scale(rat(6))


def test_operator_is_odd_when_graded():
    rep, cl = build("T2", (1, 1))
    op = cubicDirac(rep, cl, rat(1, 3))
    assert op.grading is not None
    anti = op.grading * op.matrix + op.matrix * op.grading
    assert anti == ExactMatrix.zeros(op.matrix.nrows)


def test_su2_module_has_no_grading():
    rep, cl = build("A1", (1,))
    op = cubicDirac(rep, cl, rat(1, 3))
    assert op.grading is None


def test_mismatched_clifford_rejected():
    rep = buildLieRep(systemFromLabel("A1"), (1,))
    with pytest.raises(DimensionMismatch):
        cubicDirac(rep, buildClifford(4), rat(1, 3))
    # same direction count, Euclidean gram instead of the frame's
    with pytest.raises(DimensionMismatch):
        cubicDirac(rep, buildClifford(3), rat(1, 3))


def test_operator_invariants_enforced():
    ident = ExactMatrix.identity(2)
    skew = ExactMatrix.from_rows([[0, -1], [1, 0]])
    with pytest.raises(BadOperator):
        DiracOperator(skew, None, ident, {})
    sym = ExactMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(BadOperator):
        DiracOperator(sym, ident, ident, {})


# ------------------------------------------------------ relative operator

def test_relative_su2_torus_spectrum():
    report = spectralCheckRelative(pairFromLabel("A1:T"), (2,))
    got = {b["mu"][0]: (b["multiplicity"], b["scalar"])
           for b in report["blocks"]}
    assert got == {rat(-3): (1, rat(0)), rat(-1): (2, rat(4)),
                   rat(1): (2, rat(4)), rat(3): (1, rat(0))}
    assert report["kernelCandidates"] == [(rat(-3),), (rat(3),)]


def test_relative_su2_torus_lambda_three():
    report = spectralCheckRelative(pairFromLabel("A1:T"), (3,))
    for b in report["blocks"]:
        mu = b["mu"][0]
        assert b["scalar"] == (16 - mu * mu) / 2


def test_relative_vanishes_at_lambda_zero():
    pair = pairFromLabel("A1:T")
    op = relativeCubicDirac(pair, (0,))
    assert op.matrix == ExactMatrix.zeros(2)
    report = spectralCheckRelative(pair, (0,))
    assert report["kernelCandidates"] == [(rat(-1),), (rat(1),)]


def test_relative_grading_and_form_shape():
    op = relativeCubicDirac(pairFromLabel("A2:u2"), (1, 0))
    n = op.matrix.nrows
    for i in range(n):
        assert op.grading.get(i, i)[0] in (rat(1), rat(-1))
        d = op.form.get(i, i)
        assert d[1] == 0 and d[0] > 0


def test_cubic_term_only_for_non_symmetric_pair():
    # p brackets stay in p exactly when the torus is the small subgroup of
    # a rank two system; there the order three term survives at lambda = 0
    for label in ("A1:T", "A2:u2"):
        op = relativeCubicDirac(pairFromLabel(label), (0,) * 2 if
                                label.startswith("A2") else (0,))
        assert op.matrix == ExactMatrix.zeros(op.matrix.nrows)
    op = relativeCubicDirac(pairFromLabel("A2:T"), (0, 0))
    assert op.matrix != ExactMatrix.zeros(op.matrix.nrows)
    report = spectralCheckRelative(pairFromLabel("A2:T"), (0, 0))
    for b in report["blocks"]:
        mu = b["mu"]
        assert b["scalar"] == 2 - pairFromLabel("A2:T").h.innerProduct(mu, mu)


def test_relative_su3_u2_spectrum():
    report = spectralCheckRelative(pairFromLabel("A2:u2"), (1, 1))
    got = {tuple(b["mu"]): (b["multiplicity"], b["scalar"])
           for b in report["blocks"]}
    assert got == {
        (rat(0), rat(-3)): (2, rat(6)), (rat(0), rat(3)): (2, rat(6)),
        (rat(1), rat(-6)): (1, rat(0)), (rat(1), rat(0)): (4, rat(6)),
        (rat(1), rat(6)): (1, rat(0)), (rat(2), rat(-3)): (2, rat(2)),
        (rat(2), rat(3)): (2, rat(2)), (rat(3), rat(0)): (1, rat(0)),
    }
    assert report["kernelCandidates"] == [
        (rat(1), rat(-6)), (rat(1), rat(6)), (rat(3), rat(0))]


def test_relative_check_catches_a_wrong_square(monkeypatch):
    real = DiracOperator.square

    def shifted(op):
        return real(op) + ExactMatrix.identity(op.matrix.nrows)

    monkeypatch.setattr(DiracOperator, "square", shifted)
    with pytest.raises(SpectralMismatch, match="not the predicted scalar"):
        spectralCheckRelative(pairFromLabel("A2:u2"), (1, 1))


def test_relative_check_counts_highest_weight_vectors(monkeypatch):
    # without raising operators every weight vector of W_mu looks highest
    monkeypatch.setattr(RelativePieces, "raisingOps", lambda rp: [])
    with pytest.raises(SpectralMismatch, match="isotypic multiplicity"):
        spectralCheckRelative(pairFromLabel("A2:u2"), (1, 1))


def test_relative_full_torus_kernel_is_weyl_orbit():
    pair = pairFromLabel("A2:T")
    report = spectralCheckRelative(pair, (1, 0))
    # candidates = the orbit of lambda + rho under the six Weyl reflections
    assert set(report["kernelCandidates"]) == {
        (rat(2), rat(1)), (rat(-2), rat(3)), (rat(3), rat(-1)),
        (rat(-3), rat(2)), (rat(1), rat(-3)), (rat(-1), rat(-2))}


def test_trivial_pair_operator_is_zero():
    pair = pairFromLabel("A2:full")
    report = spectralCheckRelative(pair, (1, 1))
    assert report["blocks"] == [{"mu": (rat(1), rat(1)), "multiplicity": 1,
                                 "scalar": rat(0), "match": True}]
    assert report["kernelCandidates"] == [(rat(1), rat(1))]


def test_relative_size_limit(monkeypatch):
    # V_2 of A1 is 3 wide and S_p of A1:T is 2 wide
    monkeypatch.setattr("diracforge.dirac.RELATIVE_SIZE_LIMIT", 4)
    with pytest.raises(TooLarge,
                       match=r"^V \(x\) S_p would be 6 x 6; limit 4$"):
        RelativePieces(pairFromLabel("A1:T"), (2,))


def test_clifford_split_built_once_per_pair(monkeypatch, capsys):
    # the pair's spinors depend only on the pair; a sweep over four
    # lambdas and a kernelIndex over several lambdas each build them once
    calls = []
    real = dirac.PairSpinors

    def counting(pair):
        calls.append(pair)
        return real(pair)

    monkeypatch.setattr(dirac, "PairSpinors", counting)
    assert main(["verify-relative", "--pair", "A2:u2", "--lambda-max", "1"]) == 0
    assert capsys.readouterr().out.count(" blocks ok") == 4
    assert len(calls) == 1
    pair = pairFromLabel("A1:T")
    assert dict(kernelIndex(pair, {(3,): 1}).entries) == {(rat(2),): 1}
    assert calls[1:] == [pair]


@pytest.mark.parametrize("label,weight,nblocks", [
    ("A3:T", "0,0,0", 38),
    ("A3:keep=0,1", "0,1,0", 8),
    ("A3:keep=0,2", "0,0,0", 6),
    ("A3:keep=0,2", "1,0,0", 12),
])
def test_a3_pairs_run(label, weight, nblocks, capsys):
    # the relative route builds S_p only; the S_h of these pairs has no
    # exact module, which used to stop them
    assert main(["verify-relative", "--pair", label, "--weight", weight]) == 0
    assert capsys.readouterr().out.startswith(
        "lambda (%s): %d blocks ok," % (weight, nblocks))


def count_builds(monkeypatch):
    """Counts of CompactFrame, CliffordModule and spinRepresentation
    builds, kept up to date while the monkeypatch lasts."""
    counts = {"frame": 0, "module": 0, "spin": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(structure.CompactFrame, "__init__",
                        counted("frame", structure.CompactFrame.__init__))
    monkeypatch.setattr(clifford.CliffordModule, "__init__",
                        counted("module", clifford.CliffordModule.__init__))
    spin = counted("spin", clifford.spinRepresentation)
    monkeypatch.setattr(clifford, "spinRepresentation", spin)
    monkeypatch.setattr(dirac, "spinRepresentation", spin)
    return counts


@pytest.mark.parametrize("argv", [
    ["verify-relative", "--pair", "A2:u2", "--lambda-max", "1"],
    ["verify-kostant", "--type", "A1xA1", "--lambda-max", "1"],
], ids=["A2:u2", "A1xA1"])
def test_sweep_builds_the_weight_independent_data_once(argv, monkeypatch,
                                                       capsys):
    counts = count_builds(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out.count(" ok") == 4
    assert counts == {"frame": 1, "module": 1, "spin": 1}


@pytest.mark.parametrize("command,flag,label,rank,bound", [
    ("verify-relative", "--pair", "A2:u2", 2, 1),
    ("verify-relative", "--pair", "A1:T", 1, 3),
    ("verify-kostant", "--type", "A1xA1", 2, 1),
], ids=["A2:u2", "A1:T", "A1xA1"])
def test_sweep_is_the_concatenation_of_single_runs(command, flag, label,
                                                   rank, bound, capsys):
    def run(*extra):
        assert main([command, flag, label, "--format", "json", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    sweep = run("--lambda-max", str(bound))
    key = "runs" if command == "verify-relative" else "blocks"
    singles = []
    for lam in itertools.product(range(bound + 1), repeat=rank):
        singles.extend(run("--weight", ",".join(map(str, lam)))[key])
    assert sweep[key] == singles


# ----------------------------------------------------------- kernel index

def test_kernel_index_frozen_trio():
    pair = pairFromLabel("A1:T")
    assert dict(kernelIndex(pair, {(3,): 1}).entries) == {(rat(2),): 1}
    assert dict(kernelIndex(pair, {(0,): 1}).entries) == {}
    assert dict(kernelIndex(pair, {(-3,): 1}).entries) == {(rat(2),): -1}


def test_kernel_index_more_multiplets():
    pair = pairFromLabel("A1:T")
    assert dict(kernelIndex(pair, {(2,): 1}).entries) == {(rat(1),): 1}
    assert dict(kernelIndex(pair, {(1,): 2}).entries) == {(rat(0),): 2}


def test_kernel_index_is_linear():
    pair = pairFromLabel("A1:T")
    chi = FormalCharacter(pair.h, {(rat(3),): 1, (rat(-3),): 1})
    assert dict(kernelIndex(pair, chi).entries) == {}
    chi = FormalCharacter(pair.h, {(rat(3),): 2, (rat(-3),): 1})
    assert dict(kernelIndex(pair, chi).entries) == {(rat(2),): 1}
