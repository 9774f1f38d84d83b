import pytest

from diracforge.errors import BadStructureConstants, NotOrthogonal, UnsupportedType
from diracforge.exactmat import ExactMatrix, commutator
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.rationals import ZERO, rat
from diracforge.reps import buildLieRep
from diracforge.structure import CompactFrame, PairFrame, buildFrame

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


def test_one_frame_per_system():
    # representations and pair frames of one system share its frame
    pair = pairFromLabel("A2:u2")
    fr = buildFrame(pair.g)
    assert buildFrame(pair.g) is fr
    assert PairFrame(pair).frame is fr
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
                       match=r"^bracket of \('iH', 0\) and \('A', .*\) left "
                             r"the frame span$"):
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


@pytest.mark.parametrize("label,psize", [("A1:T", 2), ("A2:T", 6), ("A2:u2", 4),
                                         ("A2:full", 0), ("A3:keep=0,2", 8)])
def test_pair_frame_split(label, psize):
    pair = pairFromLabel(label)
    pf = PairFrame(pair)
    assert len(pf.pIndices) == psize
    assert len(pf.pIndices) + len(pf.hIndices) == pf.frame.dim
    # p directions are exactly the root pairs listed by the pair
    proots = set(pair.pRoots)
    for a in pf.pIndices:
        name = pf.frame.names[a]
        assert name[0] in ("A", "B")
        assert name[1] in proots
    # gram is block diagonal across the split, so the inverse of the p
    # gram is the p block of the frame's inverse gram
    for a in pf.pIndices:
        for b in pf.hIndices:
            assert pf.frame.gram[a][b] == 0
    inv = pf.frame.gramInverse
    assert [[pf.pGramInverse.get(i, j) for j in range(psize)]
            for i in range(psize)] \
        == [[inv.get(a, b) for b in pf.pIndices] for a in pf.pIndices]


@pytest.mark.parametrize("label", ["A1:T", "A2:T", "A2:u2"])
def test_pair_brackets_are_reductive(label):
    pair = pairFromLabel(label)
    pf = PairFrame(pair)
    np_, nh = len(pf.pIndices), len(pf.hIndices)
    # [h, p] stays in p: hBracketOnP reproduces the full bracket
    for hi in range(nh):
        for j in range(np_):
            full = pf.frame.bracketCoefficients(pf.hIndices[hi], pf.pIndices[j])
            onp = pf.hBracketOnP(hi, j)
            for c in range(pf.frame.dim):
                if c in pf.pIndices:
                    assert onp[pf.pIndices.index(c)] == full[c]
                else:
                    assert full[c] == 0


def test_pair_p_bracket_projection():
    # for the symmetric pairs [p,p] lies in h, so the p projection is zero;
    # for A2:T the projection has honest content
    for label, vanishes in [("A1:T", True), ("A2:u2", True), ("A2:T", False)]:
        pf = PairFrame(pairFromLabel(label))
        np_ = len(pf.pIndices)
        seen = False
        for i in range(np_):
            for j in range(np_):
                if any(pf.pBracketInP(i, j)):
                    seen = True
        assert seen != vanishes


def test_pair_weights_match_pair_data():
    # each (A, B) root pair carries the positive root, mapped to H coords
    pair = pairFromLabel("A2:u2")
    pf = PairFrame(pair)
    weights = sorted(pair.weightToH(pf.frame.names[a][1]) for a in pf.pIndices)
    expected = sorted(pair.weightToH(r) for r in pair.pRoots for _ in range(2))
    assert weights == expected
    assert set(weights) == {(rat(-1), rat(3)), (rat(1), rat(3))}
