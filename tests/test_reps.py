import pytest

from diracforge import cache
from diracforge.characters import irreducibleCharacter, weylDimension
from diracforge.errors import (BadStructureConstants, NotDominant,
                               NotIntegral, TooLarge)
from diracforge.exactmat import ExactMatrix, commutator
from diracforge.liecore import systemFromLabel
from diracforge.rationals import ZERO, rat
from diracforge.reps import LieRep, _verify_rep, buildLieRep
from diracforge.structure import buildFrame

from helpers import definingBlockPi


def entries(m):
    return [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def gauss_rows(rows):
    return [[(rat(a), rat(b)) for a, b in row] for row in rows]


# ----------------------------------------------------------- frozen models

def test_su2_defining_matrices():
    # basis sorted by weight, so the lowest weight vector comes first
    rep = buildLieRep(systemFromLabel("A1"), (1,))
    assert rep.dimension == 2
    assert rep.weights == ((rat(-1),), (rat(1),))
    i_h, a, b = rep.pi
    assert entries(i_h) == gauss_rows([[(0, -1), (0, 0)], [(0, 0), (0, 1)]])
    assert entries(a) == gauss_rows([[(0, 0), (-1, 0)], [(1, 0), (0, 0)]])
    assert entries(b) == gauss_rows([[(0, 0), (0, 1)], [(0, 1), (0, 0)]])
    assert rep.form == ExactMatrix.identity(2)


def test_trivial_rep_is_zero():
    for label in ("A1", "A2", "A1xT1"):
        rs = systemFromLabel(label)
        rep = buildLieRep(rs, tuple(0 for _ in range(rs.rank)))
        assert rep.dimension == 1
        for m in rep.pi:
            assert m == ExactMatrix.zeros(1)


def test_su3_defining_weights():
    rep = buildLieRep(systemFromLabel("A2"), (1, 0))
    assert rep.dimension == 3
    assert set(rep.weights) == {(rat(1), rat(0)), (rat(-1), rat(1)),
                                (rat(0), rat(-1))}
    assert rep.form == ExactMatrix.identity(3)
    # Lambda^2 C^4 is minuscule too
    rep = buildLieRep(systemFromLabel("A3"), (0, 1, 0))
    assert rep.dimension == 6
    assert rep.form == ExactMatrix.identity(6)


def test_torus_factor_acts_as_scalar():
    rep = buildLieRep(systemFromLabel("A1xT1"), (1, 5))
    assert rep.dimension == 2
    assert rep.pi[1] == ExactMatrix.identity(2).scale((ZERO, rat(5)))
    assert rep.weights == ((rat(-1), rat(5)), (rat(1), rat(5)))


def test_pure_torus_rep():
    rep = buildLieRep(systemFromLabel("T2"), (2, -1))
    assert rep.dimension == 1
    assert rep.pi[0].get(0, 0) == (ZERO, rat(2))
    assert rep.pi[1].get(0, 0) == (ZERO, rat(-1))


# ------------------------------------------------------------- invariants

CASES = [
    ("A1", (3,)),
    ("A2", (1, 1)),
    ("A2", (2, 0)),
    ("A3", (0, 1, 0)),
    ("A1xA1", (1, 2)),
    ("A1xT1", (2, -3)),
    ("A2", (0, 7)),
    ("A1xA1", (7, 7)),
    ("A1", (20,)),
]


@pytest.mark.parametrize("label,lam", CASES)
def test_dimension_matches_weyl(label, lam):
    rs = systemFromLabel(label)
    rep = buildLieRep(rs, lam)
    assert rep.dimension == weylDimension(rs, lam)


@pytest.mark.parametrize("label,lam", CASES)
def test_character_matches_weyl_formula(label, lam):
    rs = systemFromLabel(label)
    rep = buildLieRep(rs, lam)
    assert rep.character() == irreducibleCharacter(rs, lam)


@pytest.mark.parametrize("label,lam", CASES)
def test_skew_adjoint_for_diagonal_form(label, lam):
    rep = buildLieRep(systemFromLabel(label), lam)
    for i in range(rep.dimension):
        for j in range(rep.dimension):
            if i != j:
                assert rep.form.get(i, j) == (ZERO, ZERO)
        d = rep.form.get(i, i)
        assert d[1] == 0 and d[0] > 0
    for m in rep.pi:
        assert m.is_skewadjoint_wrt(rep.form)


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("A3", (1, 0, 1))])
def test_all_bracket_relations(label, lam):
    # check every pair here, independently of the check inside the build
    rep = buildLieRep(systemFromLabel(label), lam)
    frame = rep.frame
    zero = ExactMatrix.zeros(rep.dimension)
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            want = zero
            for c, x in enumerate(frame.bracketCoefficients(a, b)):
                if x:
                    want = want + rep.pi[c].scale(x)
            assert commutator(rep.pi[a], rep.pi[b]) == want


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("A1xA1", (1, 2)),
                                       ("A1xT2", (2, 1, -1))])
def test_pi_is_the_defining_block_route(label, lam):
    # pi reads each direction's units off the frame; the reference reads
    # the entries of the frame matrices on the defining blocks
    rs = systemFromLabel(label)
    assert buildLieRep(rs, lam).pi == definingBlockPi(rs, lam)


@pytest.mark.parametrize("lam", [(1, 1), (2, 2)], ids=["dim8", "dim27"])
def test_broken_bracket_is_caught_at_every_size(lam):
    # negating pi of the highest-root direction A_(1,1) keeps pi
    # skew-adjoint and the character intact; only a bracket relation sees it
    rep = buildLieRep(systemFromLabel("A2"), lam)
    a = rep.frame.names.index(("A", (rat(1), rat(1))))
    pi = list(rep.pi)
    pi[a] = -pi[a]
    broken = LieRep(rep.system, rep.frame, rep.lam, pi, rep.form, rep.weights)
    with pytest.raises(BadStructureConstants,
                       match=r"^bracket relation failed at \(\d+, \d+\)$"):
        _verify_rep(broken)


def test_swapped_weight_is_caught():
    # swapping the two coordinates of the highest weight (1,0) of A2 gives
    # (0,1): every pi still checks, only the torus character does not
    rep = buildLieRep(systemFromLabel("A2"), (1, 0))
    weights = list(rep.weights)
    top = weights.index((1, 0))
    weights[top] = weights[top][::-1]
    broken = LieRep(rep.system, rep.frame, rep.lam, rep.pi, rep.form, weights)
    with pytest.raises(BadStructureConstants,
                       match="^torus character mismatch$"):
        _verify_rep(broken)


def test_character_check_uses_no_cache(monkeypatch):
    # the oracle is the Freudenthal recursion in memory, never a file
    def refuse(*args):
        raise AssertionError("character cache used")

    monkeypatch.setattr(cache, "load", refuse)
    monkeypatch.setattr(cache, "store", refuse)
    assert buildLieRep(systemFromLabel("A2"), (1, 1)).dimension == 8


def test_cartan_acts_by_weight():
    rep = buildLieRep(systemFromLabel("A2"), (1, 1))
    for p in range(2):
        for v, w in enumerate(rep.weights):
            assert rep.pi[p].get(v, v) == (ZERO, w[p])


def test_build_runs_no_elimination(monkeypatch):
    # the patterns and their matrices are closed forms: no rref, nor the
    # nullspace or inverse built on it
    rs = systemFromLabel("A2")
    buildFrame(rs)  # the frame's gram inverse is an elimination
    calls = []

    def wrapped(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(ExactMatrix, "rref",
                        wrapped("rref", ExactMatrix.rref))
    rep = buildLieRep(rs, (2, 1))
    assert rep.dimension == 15
    assert calls == []


def test_weights_ascending():
    rep = buildLieRep(systemFromLabel("A2"), (2, 0))
    assert list(rep.weights) == sorted(rep.weights)


# ------------------------------------------------------------ error paths

def test_rejects_non_dominant():
    with pytest.raises(NotDominant):
        buildLieRep(systemFromLabel("A1"), (-1,))


def test_rejects_non_integral():
    with pytest.raises(NotIntegral):
        buildLieRep(systemFromLabel("A1"), (rat(1, 2),))


def test_dimension_limit():
    with pytest.raises(TooLarge, match="^dim V = 101 exceeds the desk-scale "
                                       "limit 64$"):
        buildLieRep(systemFromLabel("A1"), (100,))

