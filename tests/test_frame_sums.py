"""Frame sums through exactmat's combination and contract, against
per-direction reference loops.

The reference functions spell every dual-frame sum out term by term:
the dual gamma c^a = sum_b (G^-1)_{ab} c(X_b) built one direction at a
time, the operator summed on V (x) S one direction at a time, the spin map
as a double sum over (G^-1)_{bc} (``helpers.refSpin``, and
``helpers.pairSpins`` on the p block of a pair), and the tensor-diagonal
Casimir as d^2 products of the n x n matrices
delta_a = pi_a (x) 1 + 1 (x) ad_a.  The package's operators must equal
them as matrices, not only in their readings.  The Kostant report reads
its two Casimir readings off the scalar and characters; they must equal
the readings of the matrices ``piCasimir`` and
``helpers.tensorDiagonalCasimir``.
"""

import pytest

from diracforge.clifford import (buildCliffordFrame, frameClifford,
                                 spinRepresentation)
from diracforge.dirac import (RelativePieces, _scalar_of, cubicDirac,
                              piCasimir, relativeCubicDirac,
                              verifyKostantIdentity)
from diracforge.exactmat import ExactMatrix, combination, contract
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.rationals import ZERO, rat, rat_str
from diracforge.reps import buildLieRep

from helpers import FRAME_CASES, pairSpins, refSpin, tensorDiagonalCasimir

KOSTANT_CASES = [
    ("A1", (0,)), ("A1", (1,)),
    ("A2", (0, 0)), ("A2", (1, 0)), ("A2", (2, 0)), ("A2", (1, 1)),
    ("A1xA1", (1, 2)), ("A1xT1", (3, 2)), ("T2", (1, 1)),
]

RELATIVE_CASES = [
    ("A1:T", (3,)), ("A2:u2", (1, 0)), ("A2:T", (1, 1)), ("A2:full", (1, 0)),
]


def case_id(case):
    return "%s-%s" % (case[0], ",".join(str(c) for c in case[1]))


def build(label, lam):
    rep = buildLieRep(systemFromLabel(label), lam)
    fr = rep.frame
    hints = tuple((i, i + 1) for i, nm in enumerate(fr.names) if nm[0] == "A")
    return rep, buildCliffordFrame(fr.gram, hints)


# ------------------------------------------------------------- references

def ref_assembly(pi, gamma, ginv, ads, q, dim_v, size):
    """sum_a (pi_a (x) c^a + q 1 (x) ad_a c^a), one direction at a time."""
    idv = ExactMatrix.identity(dim_v)
    total = ExactMatrix.zeros(dim_v * size)
    for a in range(len(pi)):
        cli = ExactMatrix.zeros(size)
        for b in range(len(gamma)):
            w = ginv.get(a, b)[0]
            if w:
                cli = cli + gamma[b].scale(w)
        total = total + pi[a].kron(cli) + idv.kron(ads[a] * cli).scale(q)
    return total


def ref_pi_casimir(rep):
    ginv = rep.frame.gramInverse
    cas = ExactMatrix.zeros(rep.dimension)
    for a in range(rep.frame.dim):
        for b in range(rep.frame.dim):
            w = ginv.get(a, b)[0]
            if w:
                cas = cas - (rep.pi[a] * rep.pi[b]).scale(w)
    return cas


def ref_tensor_diagonal_casimir(rep, ads, size):
    """-sum (G^-1)_{ab} delta_a delta_b from d^2 products on V (x) S."""
    ginv = rep.frame.gramInverse
    ids = ExactMatrix.identity(size)
    idv = ExactMatrix.identity(rep.dimension)
    deltas = [rep.pi[a].kron(ids) + idv.kron(ads[a])
              for a in range(rep.frame.dim)]
    cas = ExactMatrix.zeros(rep.dimension * size)
    for a in range(rep.frame.dim):
        for b in range(rep.frame.dim):
            w = ginv.get(a, b)[0]
            if w:
                cas = cas - (deltas[a] * deltas[b]).scale(w)
    return cas


def frame_spin(rep, cl):
    fr = rep.frame
    brackets = [[fr.bracketCoefficients(a, c) for c in range(fr.dim)]
                for a in range(fr.dim)]
    return refSpin(brackets, cl.gamma, fr.gramInverse, cl.size)


# ------------------------------------------------------------ full operator

@pytest.mark.parametrize("case", KOSTANT_CASES, ids=case_id)
def test_cubic_dirac_matches_per_direction_assembly(case):
    rep, cl = build(*case)
    ads = frame_spin(rep, cl)
    assert spinRepresentation(rep.frame, cl) == ads
    for q in (rat(1, 3), rat(1)):
        op = cubicDirac(rep, cl, q)
        assert op.matrix == ref_assembly(rep.pi, cl.gamma,
                                         rep.frame.gramInverse, ads, q,
                                         rep.dimension, cl.size)


@pytest.mark.parametrize("case", KOSTANT_CASES, ids=case_id)
def test_tensor_diagonal_casimir_matches_products(case):
    rep, cl = build(*case)
    ads = frame_spin(rep, cl)
    got = tensorDiagonalCasimir(rep, ads, piCasimir(rep), cl.size)
    assert got == ref_tensor_diagonal_casimir(rep, ads, cl.size)


def reading(mat):
    """The report's spelling of mat's scalar: "failure" unless mat is a
    real multiple of the identity."""
    z = _scalar_of(mat)
    return "failure" if z is None else rat_str(z)


def nonzero_weight(rs):
    """1 at the last simple coordinate, or at the first torus one."""
    lam = [0] * rs.rank
    lam[(rs.simple_positions or [0])[-1]] = 1
    return tuple(lam)


@pytest.mark.parametrize("label", [case[0] for case in FRAME_CASES])
def test_audit_readings_match_the_matrix_readings(label):
    # the report reads both from the scalar and characters; here they are
    # read off D^2 minus each Casimir as a matrix on V (x) S
    rs = systemFromLabel(label)
    for lam in ((0,) * rs.rank, nonzero_weight(rs)):
        rep = buildLieRep(rs, lam)
        cl = frameClifford(rep.frame)
        sq = cubicDirac(rep, cl, rat(1, 3)).square()
        cas_v = piCasimir(rep)
        diag = tensorDiagonalCasimir(rep, spinRepresentation(rep.frame, cl),
                                     cas_v, cl.size)
        want = {"piOnly": reading(sq - cas_v.kron(
                    ExactMatrix.identity(cl.size))),
                "tensorDiagonal": reading(sq - diag)}
        assert verifyKostantIdentity(rep, cl)["readings"] == want


@pytest.mark.parametrize("case", KOSTANT_CASES, ids=case_id)
def test_pi_casimir_matches_double_sum(case):
    rep = buildLieRep(systemFromLabel(case[0]), case[1])
    assert piCasimir(rep) == ref_pi_casimir(rep)


# -------------------------------------------------------- relative operator

@pytest.mark.parametrize("case", RELATIVE_CASES, ids=case_id)
def test_relative_dirac_matches_per_direction_assembly(case):
    pair = pairFromLabel(case[0])
    rp = RelativePieces(pair, case[1])
    spinors, s_p, rep = rp.spinors, rp.s_p, rp.rep
    p = spinors.pIndices
    ads = pairSpins(spinors)
    assert spinRepresentation(spinors.frame, s_p, on=p) == ads
    pads = [ads[a] for a in p]
    assert spinors.pSpin == pads
    pi = [rep.pi[a] for a in p]
    want = ref_assembly(pi, s_p.gamma, spinors.pGramInverse, pads,
                        rat(1, 3), rep.dimension, s_p.size)
    assert relativeCubicDirac(pair, case[1], rp).matrix == want


@pytest.mark.parametrize("label", ["A1:T", "A2:u2", "A2:T"])
def test_h_spin_action_matches_double_sum(label):
    pair = pairFromLabel(label)
    rp = RelativePieces(pair, (0,) * pair.g.rank)
    spinors = rp.spinors
    ads = pairSpins(spinors)
    assert spinors.hSpin == tuple(ads[a] for a in spinors.hIndices)


# ----------------------------------------------------------------- helpers

def test_combination_and_contract_expand_their_sums():
    a = ExactMatrix.from_rows([[1, 2], [0, (0, 1)]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert combination((rat(2), ZERO), (a, b), 2) == a.scale(2)
    assert combination((), (), 3) == ExactMatrix.zeros(3)
    ginv = ExactMatrix.from_rows([[1, rat(1, 2)], [-1, 0]])
    want = a * a + (a * b).scale(rat(1, 2)) - b * a
    assert contract((a, b), (a, b), ginv, 2) == want
    assert contract((a, b), (a, b), ExactMatrix.zeros(2), 2).is_zero()
    with pytest.raises(TypeError):
        contract((a, b), (a, b), ExactMatrix.identity(2).scale((0, 1)), 2)


def test_inverse():
    def inverse(rows):
        return ExactMatrix.from_rows(rows).inverse()
    assert inverse([[2, 1], [1, 1]]) == ExactMatrix.from_rows([[1, -1],
                                                               [-1, 2]])
    assert inverse([[rat(1, 2)]]) == ExactMatrix.identity(1, 2)
    assert inverse([[1, 2], [2, 4]]) is None
    assert inverse([]) == ExactMatrix.zeros(0)
