import random

import pytest

from diracforge.clifford import (CliffordModule, PairSpinors, _conic_point,
                                 _orthogonalize, _validate_structure,
                                 buildCliffordFrame, frameClifford,
                                 spinRepresentation, splitCliffordForPair)
from diracforge.errors import (BadStructureConstants, CliffordConstructionError,
                               TooLarge)
from diracforge.exactmat import ExactMatrix, anticommutator, commutator
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.rationals import ZERO, rat
from diracforge.structure import buildFrame

from helpers import (FRAME_CASES, RawStructure, buildClifford,
                     commutantDimension, pBrackets, pairSpins, refCliffordOf,
                     refSpin, spinorWeights)


def frame_module(label):
    fr = buildFrame(systemFromLabel(label))
    hints = tuple((i, i + 1) for i, nm in enumerate(fr.names) if nm[0] == "A")
    return fr, buildCliffordFrame(fr.gram, hints)


# ------------------------------------------------------------- Euclidean

@pytest.mark.parametrize("n", range(1, 8))
def test_euclidean_sizes_and_grading(n):
    cl = buildClifford(n)
    assert cl.size == 2 ** (n // 2)
    assert not cl.doubled
    if n % 2 == 0:
        assert cl.grading is not None
    else:
        assert cl.grading is None
        assert cl.gradingReason == "odd direction count"


def test_one_direction_is_i():
    cl = buildClifford(1)
    assert cl.size == 1
    assert cl.gamma[0].get(0, 0) == (ZERO, rat(1))


def test_euclidean_relations_explicit():
    cl = buildClifford(4)
    ident = ExactMatrix.identity(cl.size)
    zero = ExactMatrix.zeros(cl.size)
    for a in range(4):
        for b in range(4):
            want = ident.scale(rat(-2)) if a == b else zero
            assert anticommutator(cl.gamma[a], cl.gamma[b]) == want


def test_euclidean_size_limit():
    gram = [[rat(1) if i == j else ZERO for j in range(13)] for i in range(13)]
    with pytest.raises(TooLarge, match="^frame has 13 directions, so S would "
                                       "be at least 64 wide; limit 12 "
                                       "directions$"):
        buildCliffordFrame(gram)


def test_commutant_is_scalars():
    for n in range(1, 8):
        assert commutantDimension(buildClifford(n)) == 1


# ----------------------------------------------------------- frame modules

@pytest.mark.parametrize("label,size,doubled,graded", FRAME_CASES)
def test_frame_module_shapes(label, size, doubled, graded):
    fr, cl = frame_module(label)
    assert cl.size == size
    assert cl.doubled is doubled
    assert (cl.grading is not None) is graded


@pytest.mark.parametrize("label", [case[0] for case in FRAME_CASES])
def test_spin_map_reads_the_module_products(label):
    # the module keeps gamma_a gamma_b, a < b, from its relation check; the
    # spin map combines them and must equal the double sum term by term
    fr, cl = frame_module(label)
    assert cl.products == {(a, b): cl.gamma[a] * cl.gamma[b]
                           for a in range(fr.dim) for b in range(a + 1, fr.dim)}
    brackets = [[fr.bracketCoefficients(a, c) for c in range(fr.dim)]
                for a in range(fr.dim)]
    assert spinRepresentation(fr, cl) \
        == refSpin(brackets, cl.gamma, fr.gramInverse, cl.size)


def test_su3_grading_obstruction_names_class():
    _, cl = frame_module("A2")
    assert "3" in cl.gradingReason


def test_frame_relations_against_gram():
    fr, cl = frame_module("A2")
    ident = ExactMatrix.identity(cl.size)
    for a in range(fr.dim):
        for b in range(fr.dim):
            assert anticommutator(cl.gamma[a], cl.gamma[b]) \
                == ident.scale(-2 * fr.gram[a][b])


def test_form_is_positive_diagonal_and_gammas_skew():
    for label in ("A1", "A2", "A1xT1"):
        _, cl = frame_module(label)
        for i in range(cl.size):
            for j in range(cl.size):
                v = cl.form.get(i, j)
                if i == j:
                    assert v[1] == 0 and v[0] > 0
                else:
                    assert v == (ZERO, ZERO)
        for g in cl.gamma:
            assert g.is_skewadjoint_wrt(cl.form)


def test_mismatched_hint_classes_rejected():
    # norms 1 and 2 sit in different square classes
    gram = [[rat(1), ZERO], [ZERO, rat(2)]]
    with pytest.raises(CliffordConstructionError):
        buildCliffordFrame(gram, ((0, 1),))


@pytest.mark.parametrize("gram", [
    [[1, 2], [2, 1]],
    [[1, 0], [0, -1]],
    [[1, 1], [1, 1]],
    [[2, 1, 0], [1, 2, 2], [0, 2, 1]],
], ids=["indefinite", "negative", "singular", "third-pivot"])
def test_non_positive_gram_rejected(gram):
    gram = [[rat(x) for x in row] for row in gram]
    with pytest.raises(CliffordConstructionError,
                       match="^frame gram is not positive definite$"):
        buildCliffordFrame(gram)


def check_ldl(gram):
    """_orthogonalize factors gram as back diag(norms) back^T, with back
    unit lower triangular and every norm positive."""
    back, norms = _orthogonalize(gram)
    for j, row in enumerate(back):
        assert row[j] == 1 and not any(row[j + 1:])
    assert all(n > 0 for n in norms)
    b = ExactMatrix.from_rows(back)
    assert b * ExactMatrix.diag(norms) * b.transpose() \
        == ExactMatrix.from_rows(gram)


@pytest.mark.parametrize("seed", range(4))
def test_ldl_of_random_positive_grams(seed):
    rng = random.Random(seed)
    for d in range(1, 13):
        m = ExactMatrix.from_rows([[rat(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(d)] for _ in range(d)])
        g = m.transpose() * m + ExactMatrix.identity(d)
        check_ldl([[g.get(i, j)[0] for j in range(d)] for i in range(d)])


@pytest.mark.parametrize("label", ["A1", "A2", "A1xA1", "A1xT1", "T1", "T2",
                                   "A1:T", "A2:T", "A2:u2", "A2:full",
                                   "A1xT1:T"])
def test_ldl_of_frame_and_pair_grams(label):
    if ":" not in label:
        check_ldl(buildFrame(systemFromLabel(label)).gram)
    else:
        sp = PairSpinors(pairFromLabel(label))
        check_ldl(sp.pGram)
        check_ldl([[sp.frame.gram[a][b] for b in sp.hIndices]
                   for a in sp.hIndices])


def test_wrong_gamma_names_the_failed_relation():
    cl = buildClifford(3)
    gamma = (cl.gamma[0], cl.gamma[0], cl.gamma[2])  # c(e_1) replaced
    with pytest.raises(CliffordConstructionError,
                       match="^relation failed at directions 0, 1$"):
        CliffordModule(cl.gram, gamma, cl.grading, cl.gradingReason, cl.form,
                       cl.doubled)


def test_wrong_square_names_its_direction():
    cl = buildClifford(3)
    gamma = (cl.gamma[0], cl.gamma[1].scale(2), cl.gamma[2])
    with pytest.raises(CliffordConstructionError,
                       match="^relation failed at directions 1, 1$"):
        CliffordModule(cl.gram, gamma, cl.grading, cl.gradingReason, cl.form,
                       cl.doubled)


def test_unpaired_classes_without_a_conic_point_are_doubled():
    # 6X^2 + 9Y^2 = 5Z^2 has no non-zero solution, so the bounded search
    # finds no mixed block; neither norm is a square, so each direction
    # gets an auxiliary block instead of a refusal
    assert _conic_point(rat(3, 2), rat(5, 6)) is None
    cl = buildCliffordFrame([[rat(3, 2), ZERO], [ZERO, rat(5, 6)]])
    assert (cl.size, cl.doubled, cl.grading) == (4, True, None)
    assert cl.gradingReason == "discriminant class 5 is not a square"
    # a square norm among them takes the parity slot, the other one an
    # auxiliary block (4x^2 + y^2 = 6 has no rational point)
    assert _conic_point(rat(1, 4), rat(3, 2)) is None
    cl = buildCliffordFrame([[rat(3, 2), ZERO], [ZERO, rat(1, 4)]])
    assert (cl.size, cl.doubled) == (2, True)


def test_square_discriminant_with_unpaired_classes_has_no_grading():
    # classes 1, 2, 3 and 6 multiply to a square, but 1 and 2 share the
    # mixed block and 3 and 6 get auxiliary blocks; J (x) ... (x) J does
    # not anticommute with the mixed block, so no grading is claimed
    norms = [rat(2), rat(3), rat(6), rat(1)]
    cl = buildCliffordFrame([[n if i == j else ZERO for j in range(4)]
                             for i, n in enumerate(norms)])
    assert (cl.size, cl.doubled, cl.grading) == (8, True, None)
    assert cl.gradingReason == \
        "norm classes left unpaired, so no grading is built"


def test_grading_sign_flip():
    cl = buildClifford(2)
    flipped = cl.withGradingSign(-1)
    assert flipped.grading == cl.grading.scale(rat(-1))
    assert cl.withGradingSign(1) is cl
    _, ungraded = frame_module("A1")
    with pytest.raises(CliffordConstructionError):
        ungraded.withGradingSign(-1)


# --------------------------------------------------------------- spin rep

def check_equivariance(structure, cl):
    ads = spinRepresentation(structure, cl)
    for a in range(structure.dim):
        for b in range(structure.dim):
            assert commutator(ads[a], cl.gamma[b]) \
                == refCliffordOf(structure.bracketCoefficients(a, b),
                                 cl.gamma, cl.size)
    return ads


def spin_casimir(structure, ads, size):
    cas = ExactMatrix.zeros(size)
    for a in range(structure.dim):
        for b in range(structure.dim):
            w = structure.gramInverse.get(a, b)[0]
            if w:
                cas = cas - (ads[a] * ads[b]).scale(w)
    return cas


@pytest.mark.parametrize("label,cas", [
    ("A1", rat(3, 2)),     # spinors = doubled spin 1/2: <w, w + 2 rho>
    ("A2", rat(6)),        # highest spinor weight rho: 3 <rho, rho>
    ("A1xT1", rat(3, 2)),
    ("T2", ZERO),          # abelian: spin action vanishes
])
def test_spin_equivariance_and_casimir(label, cas):
    fr, cl = frame_module(label)
    ads = check_equivariance(fr, cl)
    c = spin_casimir(fr, ads, cl.size)
    assert c == ExactMatrix.identity(cl.size).scale(cas)
    for m in ads:
        assert m.is_skewadjoint_wrt(cl.form)


def test_spin_rep_from_raw_structure():
    # su(2) with an orthonormal-style frame: [e_a, e_b] = 2 eps_abc e_c
    gram = [[rat(2) if i == j else ZERO for j in range(3)] for i in range(3)]
    eps = {(0, 1): 2, (1, 2): 0, (0, 2): 1}
    f = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b), c in eps.items():
        sign = rat(2) if (a, b) != (0, 2) else rat(-2)
        f[a][b][c] = sign
        f[b][a][c] = -sign
    st = RawStructure(gram, f)
    cl = buildCliffordFrame(st.gram)
    ads = check_equivariance(st, cl)
    assert spin_casimir(st, ads, cl.size) \
        == ExactMatrix.identity(cl.size).scale(rat(3, 2))


def test_spin_rep_on_a_skew_basis():
    # su(2) on u0 = e0, u1 = e1, u2 = e0 + e2, where [e0, e1] = e2 and
    # cyclically: the gram couples u0 and u2, so the spin map folds terms
    # gamma_2 gamma_0 into gamma_0 gamma_2 and the identity
    gram = [[1, 0, 1], [0, 1, 0], [1, 0, 2]]
    upper = {(0, 1): (-1, 0, 1), (0, 2): (0, -1, 0), (1, 2): (2, 0, -1)}
    f = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b), coef in upper.items():
        f[a][b] = list(coef)
        f[b][a] = [-x for x in coef]
    st = RawStructure(gram, f)
    cl = buildCliffordFrame(st.gram)
    ads = check_equivariance(st, cl)
    assert ads == refSpin(st._f, cl.gamma, st.gramInverse, cl.size)
    assert spin_casimir(st, ads, cl.size) \
        == ExactMatrix.identity(cl.size).scale(rat(3, 4))


def test_singular_raw_gram_rejected():
    gram = [[rat(1), rat(1)], [rat(1), rat(1)]]
    f = [[[ZERO, ZERO], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ZERO]]]
    with pytest.raises(BadStructureConstants, match="^gram is singular$"):
        RawStructure(gram, f)


def test_bad_structure_rejected():
    gram = [[rat(1), ZERO], [ZERO, rat(1)]]
    f = [[[ZERO, ZERO], [rat(1), ZERO]], [[rat(1), ZERO], [ZERO, ZERO]]]
    cl = buildCliffordFrame(gram)
    with pytest.raises(BadStructureConstants):
        spinRepresentation(RawStructure(gram, f), cl)  # not antisymmetric


@pytest.mark.parametrize("a,b", [(0, 3), (3, 0), (2, 3), (7, 6), (5, 5)],
                         ids=["a<b", "a>b", "a<b-roots", "a>b-roots", "a=b"])
def test_antisymmetry_broken_at_one_ordered_pair_is_found(a, b):
    # only f[a][b] changes, so the pair is caught from either side
    fr = buildFrame(systemFromLabel("A2"))
    f = [[list(fr.bracketCoefficients(x, y)) for y in range(fr.dim)]
         for x in range(fr.dim)]
    f[a][b][0] += 1
    with pytest.raises(BadStructureConstants,
                       match="^brackets are not antisymmetric$"):
        _validate_structure(f, fr.gram, jacobi=True)


def totally_antisymmetric(d, triples):
    """f[a][b][c] = c_abc for the totally antisymmetric extension of
    c_abc = 1 on each listed (a, b, c)."""
    f = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for a, b, c in triples:
        for (x, y, z), sign in (((a, b, c), 1), ((b, c, a), 1),
                                ((c, a, b), 1), ((b, a, c), -1),
                                ((a, c, b), -1), ((c, b, a), -1)):
            f[x][y][z] = rat(sign)
    return f


def test_non_invariant_form_rejected():
    # su(2) brackets [e_a, e_b] = e_c are antisymmetric and satisfy
    # Jacobi, but diag(1, 1, 4) is not an invariant form for them
    gram = [[rat(1), ZERO, ZERO], [ZERO, rat(1), ZERO], [ZERO, ZERO, rat(4)]]
    st = RawStructure(gram, totally_antisymmetric(3, [(0, 1, 2)]))
    with pytest.raises(BadStructureConstants, match="^form is not invariant$"):
        spinRepresentation(st, buildCliffordFrame(gram))


@pytest.mark.parametrize("d", [5, 10])
def test_jacobi_failure_rejected(d):
    # c_012 = c_034 = 1 is invariant for the identity gram, and
    # [e_1, [e_3, e_4]] + [e_3, [e_4, e_1]] + [e_4, [e_1, e_3]] = -e_2;
    # at d = 10 the table sits on the last five directions and the first
    # five are central
    k = d - 5
    st = RawStructure(
        [[rat(1) if i == j else ZERO for j in range(d)] for i in range(d)],
        totally_antisymmetric(d, [(k, k + 1, k + 2), (k, k + 3, k + 4)]))
    with pytest.raises(BadStructureConstants, match="^Jacobi identity fails$"):
        spinRepresentation(st, buildClifford(d))


# -------------------------------------------------------------- pair split

PAIR_SIZE = {"A1:T": (2, 2), "A2:u2": (4, 4), "A2:T": (2, 8)}


@pytest.mark.parametrize("label", sorted(PAIR_SIZE))
def test_split_shapes_and_relations(label):
    pair = pairFromLabel(label)
    s_h, s_p, emb = splitCliffordForPair(pair)
    hsize, psize = PAIR_SIZE[label]
    assert (s_h.size, s_p.size) == (hsize, psize)
    assert emb.size == hsize * psize
    assert s_p.grading is not None
    # the embedding constructor already verified all Clifford relations;
    # re-check a couple across the h/p boundary
    sp = emb.spinors
    a, b = sp.hIndices[0], sp.pIndices[0]
    assert anticommutator(emb.gammaFull[a], emb.gammaFull[b]) \
        == ExactMatrix.zeros(emb.size)


@pytest.mark.parametrize("label", sorted(PAIR_SIZE))
def test_shift_weight_sits_in_plus_spinors(label):
    pair = pairFromLabel(label)
    spinors = PairSpinors(pair)
    s_p, ws = spinors.s_p, spinors.gWeights
    target = pair.weightToG(pair.shift)
    hits = [v for v, w in enumerate(ws) if w == target]
    assert len(hits) == 1
    assert s_p.grading.get(hits[0], hits[0]) == (rat(1), ZERO)


def test_spinor_weights_are_half_sums():
    # S_p weights for A2:T are all signed half sums of the positive roots
    pair = pairFromLabel("A2:T")
    spinors = PairSpinors(pair)
    ws = spinors.gWeights
    roots = [spinors.frame.names[a][1] for a in spinors.pIndices[::2]]
    half = rat(1, 2)
    expected = set()
    for signs in range(8):
        tot = [ZERO, ZERO]
        for k in range(3):
            s = half if (signs >> k) & 1 else -half
            tot = [t + s * c for t, c in zip(tot, roots[k])]
        expected.add(tuple(tot))
    assert set(ws) == expected


@pytest.mark.parametrize("label", ["A1:T", "A2:T", "A2:u2", "A2:full",
                                   "A1:full", "A1xT1:T", "A1xT2:T", "A3:T"])
def test_pair_spinors_match_the_per_call_route(label):
    # what a pair keeps for every lambda is what one call per lambda built
    pair = pairFromLabel(label)
    spinors = PairSpinors(pair)
    s_p = spinors.s_p
    spins = pairSpins(spinors)
    assert spinors.pSpin == [spins[a] for a in spinors.pIndices]
    assert spinors.hSpin == tuple(spins[a] for a in spinors.hIndices)
    weights = spinorWeights(spinors)
    assert spinors.gWeights == weights
    assert spinors.hWeights == tuple(pair.weightToH(w) for w in weights)
    # the split's S_p is the pair's, sign included
    _, split_p, _ = splitCliffordForPair(pair)
    assert (split_p.gamma, split_p.grading) == (s_p.gamma, s_p.grading)


@pytest.mark.parametrize("label", ["A1", "A2", "A1xA1", "A1xT1"])
def test_frame_clifford_matches_a_fresh_module(label):
    fr, cl = frame_module(label)
    kept = frameClifford(fr)
    assert frameClifford(fr) is kept
    assert (kept.gamma, kept.grading, kept.form) \
        == (cl.gamma, cl.grading, cl.form)
    assert spinRepresentation(fr, kept) == spinRepresentation(fr, cl)


def test_trivial_pair_split():
    # h = g: p is empty, S_p is one dimensional with trivial grading
    pair = pairFromLabel("A2:full")
    s_h, s_p, emb = splitCliffordForPair(pair)
    assert s_p.dim == 0 and s_p.size == 1
    assert emb.size == s_h.size


def test_tensor_model_is_the_spinor_module():
    # Noether-Deuring witness: an invertible exact intertwiner between the
    # tensor model and an independently built module on the same frame
    pair = pairFromLabel("A1:T")
    _, _, emb = splitCliffordForPair(pair)
    fr, sg = frame_module("A1")
    assert sg.size == emb.size
    n = emb.size
    ident = ExactMatrix.identity(n)
    rows = []
    for a in range(fr.dim):
        op = sg.gamma[a].kron(ident) - ident.kron(emb.gammaFull[a].transpose())
        for i in range(op.nrows):
            rows.append(op.row(i))
    null = ExactMatrix.from_rows(rows).nullspace()
    assert null.ncols == 2  # doubled module: End is two dimensional
    found = None
    for k in range(null.ncols):
        T = ExactMatrix.from_rows([[null.get(i * n + j, k) for j in range(n)]
                                   for i in range(n)])
        if T.inverse() is not None:
            found = T
            break
    assert found is not None
    for a in range(fr.dim):
        assert sg.gamma[a] * found == found * emb.gammaFull[a]


def test_h_spin_action_is_equivariant_for_p_cliffords():
    # [ad_Sp(Y), c(x)] = c([Y, x]) for Y in h, x in p
    pair = pairFromLabel("A2:u2")
    _, s_p, emb = splitCliffordForPair(pair)
    sp = emb.spinors
    table = pBrackets(sp.frame, sp.hIndices, sp.pIndices)
    for act, brackets in zip(sp.hSpin, table):
        for j, br in enumerate(brackets):
            assert commutator(act, s_p.gamma[j]) \
                == refCliffordOf(br, s_p.gamma, s_p.size)
        assert act.is_skewadjoint_wrt(s_p.form)
        # h acts evenly: the grading is h invariant
        assert commutator(act, s_p.grading) == ExactMatrix.zeros(s_p.size)


def test_p_structure_opts_out_of_jacobi():
    # ad^p for A2:T projects away h components, so Jacobi fails; the
    # block must still be accepted (antisymmetry and invariance hold)
    sp = PairSpinors(pairFromLabel("A2:T"))
    p = sp.pIndices
    with pytest.raises(BadStructureConstants, match="^Jacobi identity fails$"):
        _validate_structure(pBrackets(sp.frame, p, p), sp.pGram, jacobi=True)
    s_p = buildCliffordFrame(sp.pGram,
                             tuple((2 * i, 2 * i + 1) for i in range(3)))
    ads = spinRepresentation(sp.frame, s_p, on=p)
    assert any(ads[a] != ExactMatrix.zeros(s_p.size) for a in p)
