from types import SimpleNamespace

import pytest

from diracforge.clifford import PairSpinors
from diracforge.errors import BadStructureConstants, NotOrthogonal, UnsupportedType
from diracforge.exactmat import ExactMatrix, commutator
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.rationals import ZERO, rat
from diracforge.reps import buildLieRep
from diracforge.structure import CompactFrame, buildFrame

from helpers import FRAME_CASES, pBrackets

FRAME_LABELS = ["A1", "A2", "A3", "T1", "T2", "A1xT1", "A1xA1", "A2xT1"]


@pytest.mark.parametrize("label", FRAME_LABELS)
def test_frame_dimension_and_gram(label):
    rs = systemFromLabel(label)
    fr = buildFrame(rs)
    # dim g = rank + 2 * (number of positive roots)
    assert fr.dim == rs.rank + 2 * len(rs.positiveRoots)
    for a in range(fr.dim):
        for b in range(fr.dim):
            assert fr.gram[a][b] == fr.gram[b][a]
        assert fr.gram[a][a] > 0
    # root directions are normalized to squared length 2
    for i, name in enumerate(fr.names):
        if name[0] in ("A", "B"):
            assert fr.gram[i][i] == 2


@pytest.mark.parametrize("label", [case[0] for case in FRAME_CASES])
def test_units_placed_on_the_blocks_are_the_matrices(label):
    rs = systemFromLabel(label)
    fr = buildFrame(rs)
    offsets, n = [], 0
    for fam, rank in rs.factors:
        offsets.append(n)
        n += rank + 1 if fam == "A" else rank
    assert fr.matrixSize == n and len(fr.units) == len(fr.matrices) == fr.dim
    for line, m in zip(fr.units, fr.matrices):
        placed = ExactMatrix.zeros(n)
        for bi, j, k, z in line:
            placed = placed + ExactMatrix.from_entries(
                n, n, {(offsets[bi] + j, offsets[bi] + k): z})
        assert placed == m


@pytest.mark.parametrize("label", [case[0] for case in FRAME_CASES])
def test_root_pairs_name_both_directions_of_each_root(label):
    # one pair per positive root, in the system's order, after the Cartan
    rs = systemFromLabel(label)
    fr = buildFrame(rs)
    assert fr.names[:rs.rank] == tuple(("iH", p) for p in range(rs.rank))
    assert [(fr.names[a], fr.names[b]) for a, b in fr.rootPairs] \
        == [(("A", beta), ("B", beta)) for beta in rs.positiveRoots]
    assert sorted(i for ab in fr.rootPairs for i in ab) \
        == list(range(rs.rank, fr.dim))


def test_one_frame_per_system():
    # representations and pairs of one system share its frame
    pair = pairFromLabel("A2:u2")
    fr = buildFrame(pair.g)
    assert buildFrame(pair.g) is fr
    assert PairSpinors(pair).frame is fr
    assert buildLieRep(pair.g, (1, 0)).frame is fr
    # the kept frame is the frame a fresh build gives
    fresh = CompactFrame(pair.g)
    assert (fresh.names, fresh.matrices, fresh.gram) \
        == (fr.names, fr.matrices, fr.gram)


def test_unsupported_family_rejected():
    with pytest.raises(UnsupportedType):
        buildFrame(systemFromLabel("B2"))


def test_su2_brackets():
    fr = buildFrame(systemFromLabel("A1"))
    iH, A, B = range(3)
    assert fr.bracketCoefficients(iH, A) == (ZERO, ZERO, rat(2))
    assert fr.bracketCoefficients(iH, B) == (ZERO, rat(-2), ZERO)
    assert fr.bracketCoefficients(A, B) == (rat(2), ZERO, ZERO)


@pytest.mark.parametrize("label", FRAME_LABELS)
def test_bracket_reconstruction_and_antisymmetry(label):
    fr = buildFrame(systemFromLabel(label))
    for a in range(fr.dim):
        for b in range(a, fr.dim):
            cab = fr.bracketCoefficients(a, b)
            cba = fr.bracketCoefficients(b, a)
            assert all(x + y == 0 for x, y in zip(cab, cba))
            # the dual-frame expansion must reproduce the matrix bracket;
            # bracketCoefficients itself asserts this, so just exercise it
            mat = commutator(fr.matrices[a], fr.matrices[b])
            rebuilt = ExactMatrix.zeros(fr.matrixSize)
            for c, coef in enumerate(cab):
                if coef:
                    rebuilt = rebuilt + fr.matrices[c].scale(coef)
            assert rebuilt == mat


def test_bracket_outside_the_frame_rejected():
    # [iH, A] = 2B; doubling B after the dual frame was built breaks the
    # reconstruction the closure check compares against
    fr = buildFrame(systemFromLabel("A1"))
    fr.matrices = fr.matrices[:2] + (fr.matrices[2].scale(2),)
    with pytest.raises(BadStructureConstants,
                       match=r"^bracket of iH0 and A\(2\) left the frame "
                             r"span$"):
        fr.bracketCoefficients(0, 1)


def structure_constants(fr):
    """f[a][b][c]: the coefficient of X_c in [X_a, X_b]."""
    return [[fr.bracketCoefficients(a, b) for b in range(fr.dim)]
            for a in range(fr.dim)]


@pytest.mark.parametrize("label", ["A1", "A2", "A1xT1"])
def test_jacobi(label):
    fr = buildFrame(systemFromLabel(label))
    f = structure_constants(fr)
    d = fr.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                acc = [ZERO] * d
                for e in range(d):
                    for x in range(d):
                        acc[x] += f[a][e][x] * f[b][c][e]
                        acc[x] += f[b][e][x] * f[c][a][e]
                        acc[x] += f[c][e][x] * f[a][b][e]
                assert not any(acc)


@pytest.mark.parametrize("label", FRAME_LABELS)
def test_form_invariance(label):
    # <[a,b], c> + <b, [a,c]> = 0 for the trace form
    fr = buildFrame(systemFromLabel(label))
    f = structure_constants(fr)
    g = fr.gram
    d = fr.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                lhs = sum((f[a][b][e] * g[e][c] for e in range(d)), start=ZERO)
                rhs = sum((g[b][e] * f[a][c][e] for e in range(d)), start=ZERO)
                assert lhs + rhs == 0


def test_cartan_acts_by_root_coordinates():
    rs = systemFromLabel("A2")
    fr = buildFrame(rs)
    for i, name in enumerate(fr.names):
        if name[0] != "A":
            continue
        beta = name[1]
        for p in range(rs.rank):
            cf = fr.bracketCoefficients(p, i)
            # [iH_p, A_beta] = beta_p * B_beta
            assert cf[i + 1] == beta[p]
            assert all(c == 0 for j, c in enumerate(cf) if j != i + 1)


@pytest.mark.parametrize("label", [
    "A1:T", "A1:full", "A1xT1:T", "A1xT2:T", "A2:T", "A2:u2", "A2:full",
    "A3:T", "A3:keep=0,1", "A3:keep=0,2"])
def test_p_gram_inverse_is_the_inverse_of_the_p_gram(label):
    # PairSpinors reads the p block of the frame's G^-1; it must be the
    # inverse of the p gram itself
    sp = PairSpinors(pairFromLabel(label))
    assert sp.pGramInverse == ExactMatrix.from_rows(sp.pGram).inverse()


@pytest.mark.parametrize("label,psize", [("A1:T", 2), ("A2:T", 6), ("A2:u2", 4),
                                         ("A2:full", 0), ("A3:keep=0,2", 8)])
def test_pair_frame_split(label, psize):
    pair = pairFromLabel(label)
    sp = PairSpinors(pair)
    assert len(sp.pIndices) == psize
    assert len(sp.pIndices) + len(sp.hIndices) == sp.frame.dim
    # p directions are exactly the root pairs listed by the pair
    proots = set(pair.pRoots)
    for a in sp.pIndices:
        name = sp.frame.names[a]
        assert name[0] in ("A", "B")
        assert name[1] in proots
    # gram is block diagonal across the split, so the inverse of the p
    # gram is the p block of the frame's inverse gram
    for a in sp.pIndices:
        for b in sp.hIndices:
            assert sp.frame.gram[a][b] == 0
    assert sp.pGram == tuple(tuple(sp.frame.gram[a][b] for b in sp.pIndices)
                             for a in sp.pIndices)
    inv = sp.frame.gramInverse
    assert [[sp.pGramInverse.get(i, j) for j in range(psize)]
            for i in range(psize)] \
        == [[inv.get(a, b) for b in sp.pIndices] for a in sp.pIndices]


@pytest.mark.parametrize("label", ["A1:T", "A2:T", "A2:u2"])
def test_pair_brackets_are_reductive(label):
    # [h, p] stays in p: no full bracket of an h and a p direction has a
    # component outside p
    sp = PairSpinors(pairFromLabel(label))
    for a in sp.hIndices:
        for b in sp.pIndices:
            full = sp.frame.bracketCoefficients(a, b)
            assert not any(full[c] for c in sp.hIndices)


def test_pair_p_bracket_projection():
    # for the symmetric pairs [p,p] lies in h, so the p projection is zero;
    # for A2:T the projection has honest content
    for label, vanishes in [("A1:T", True), ("A2:u2", True), ("A2:T", False)]:
        sp = PairSpinors(pairFromLabel(label))
        table = pBrackets(sp.frame, sp.pIndices, sp.pIndices)
        seen = any(any(coef) for row in table for coef in row)
        assert seen != vanishes


def test_pair_weights_match_pair_data():
    # each (A, B) root pair carries the positive root, mapped to H coords
    pair = pairFromLabel("A2:u2")
    sp = PairSpinors(pair)
    weights = sorted(pair.weightToH(sp.frame.names[a][1]) for a in sp.pIndices)
    expected = sorted(pair.weightToH(r) for r in pair.pRoots for _ in range(2))
    assert weights == expected
    assert set(weights) == {(rat(-1), rat(3)), (rat(1), rat(3))}


def test_split_that_is_not_orthogonal_is_refused(monkeypatch):
    pair = pairFromLabel("A2:u2")
    fr = buildFrame(pair.g)
    a = next(i for i, nm in enumerate(fr.names) if nm[1] in pair.pRoots)
    gram = [list(row) for row in fr.gram]
    gram[a][0] = gram[0][a] = rat(1)  # direction 0 is iH0, in h
    monkeypatch.setattr(fr, "gram", tuple(map(tuple, gram)))
    with pytest.raises(NotOrthogonal,
                       match="^p and h directions are not form-orthogonal$"):
        PairSpinors(pair)


def test_split_whose_h_leaves_p_is_refused():
    # p = the root pair of the first positive root of A2 alone: the other
    # roots then sit in h, and their brackets with p land in h
    g = systemFromLabel("A2")
    not_reductive = SimpleNamespace(g=g, pRoots=(g.positiveRoots[0],))
    with pytest.raises(NotOrthogonal) as err:
        PairSpinors(not_reductive)
    assert str(err.value) == ("[h, p] escaped p at directions "
                              "A(1,1), A(-1,2)")
