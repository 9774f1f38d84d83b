import math
import random
from fractions import Fraction

import pytest

from diracforge.errors import IncompatiblePair, SystemMismatch, UnsupportedType
from diracforge.exactmat import ExactMatrix
from diracforge.liecore import (RootSystem, equalRankPair, pairFromLabel,
                                systemFromLabel, weightFromStrings,
                                weightToStrings)
from diracforge.rationals import rat
from diracforge.structure import buildFrame

from helpers import ALL_LABELS, fractionRootData, seenSetOrbit

POSITIVE_ROOT_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10,
                        "B2": 4, "C2": 4, "D4": 12, "T1": 0, "T4": 0,
                        "A1xT1": 1, "A1xA1": 2, "A2xT2": 3}

WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "C2": 8,
               "D4": 192, "T1": 1, "T4": 1, "A1xT1": 2, "A1xA1": 4, "A2xT2": 6}


def rand_weight(rs, rng, denom=4, span=6):
    return tuple(rat(rng.randint(-span, span), rng.randint(1, denom))
                 for _ in range(rs.rank))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_construction_invariants(label):
    rs = systemFromLabel(label)
    n = len(rs.simple_positions)
    for i in range(n):
        assert rs.cartanMatrix[i][i] == 2
        for j in range(n):
            if i != j:
                assert rs.cartanMatrix[i][j] <= 0
    assert len(rs.positiveRoots) == POSITIVE_ROOT_COUNTS[label]
    # the two computations of rho must agree
    assert rs.rhoFromPositiveRoots() == rs.rho
    # long roots have squared length 2 in each simple factor
    if rs.positiveRoots:
        assert max(rs.innerProduct(a, a) for a in rs.positiveRoots) == 2
    assert rs.weylGroupOrder() == WEYL_ORDERS[label]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_gram_positive_definite_sampled(label):
    rs = systemFromLabel(label)
    rng = random.Random(20260818)
    for _ in range(25):
        v = rand_weight(rs, rng)
        if any(v):
            assert rs.innerProduct(v, v) > 0


def test_build_examples():
    a1 = systemFromLabel("A1")
    assert len(a1.positiveRoots) == 1
    assert a1.rho == (rat(1),)
    assert a1.innerProduct(a1.rho, a1.rho) == rat(1, 2)

    a2 = systemFromLabel("A2")
    assert len(a2.positiveRoots) == 3
    assert a2.rho == (rat(1), rat(1))

    t1 = systemFromLabel("T1")
    assert t1.positiveRoots == ()
    assert t1.rho == (rat(0),)


def test_weight_coercion():
    # weight() checks types and converts nothing: ints and Fractions pass
    # as they are, and equal the Fraction weight they name
    rs = systemFromLabel("A2")
    w = rs.weight((1, -2))
    assert w == (rat(1), rat(-2))
    assert all(type(c) is int for c in w)
    mixed = rs.weight((rat(1, 2), 3))
    assert mixed == (rat(1, 2), rat(3))
    assert [type(c) for c in mixed] == [Fraction, int]
    given = (rat(1, 3), rat(-2))
    assert rs.weight(given) is given
    assert rs.weight([2, rat(1, 2)]) == (2, rat(1, 2))
    for bad in ((1,), (rat(1),), (rat(1), rat(2), rat(3))):
        with pytest.raises(SystemMismatch):
            rs.weight(bad)


@pytest.mark.parametrize("bad", [(1.0, 2), (1, 0.5), (True, 0), (0, False),
                                 ("1", 2), (1, "1/2")])
def test_weight_rejects_floats_bools_and_strings(bad):
    with pytest.raises(TypeError):
        systemFromLabel("A2").weight(bad)


def test_unsupported():
    for fam, rank in [("A", 5), ("A", 0), ("B", 3), ("C", 1), ("D", 5),
                      ("E", 8), ("Torus", 5)]:
        with pytest.raises(UnsupportedType):
            RootSystem([(fam, rank)])


def test_inner_product_examples():
    a1 = systemFromLabel("A1")
    alpha = a1.simpleRoots[0]
    assert a1.innerProduct(alpha, alpha) == 2
    assert a1.innerProduct(a1.rho, a1.rho) == rat(1, 2)
    a2 = systemFromLabel("A2")
    assert a2.innerProduct(a2.rho, a2.rho) == 2
    with pytest.raises(SystemMismatch):
        a2.innerProduct(a2.rho, (rat(1),))


def test_make_dominant_examples():
    a1 = systemFromLabel("A1")
    dom, w = a1.makeDominant((rat(-3),))
    assert dom == (rat(3),) and w.word == (0,) and w.sign == -1
    dom, w = a1.makeDominant((rat(0),))
    assert dom == (rat(0),) and w.word == () and w.sign == 1

    a2 = systemFromLabel("A2")
    dom, w = a2.makeDominant((rat(-1), rat(2)))
    assert a2.isDominant(dom)
    assert w.sign == (-1) ** len(w.word)
    # applying the stored word reproduces the reduction
    v = (rat(-1), rat(2))
    for i in w.word:
        v = a2.reflect(i, v)
    assert v == dom


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "D4", "A1xT1"])
def test_make_dominant_idempotent(label):
    rs = systemFromLabel(label)
    rng = random.Random(77)
    for _ in range(30):
        lam = rand_weight(rs, rng)
        dom, _ = rs.makeDominant(lam)
        dom2, w2 = rs.makeDominant(dom)
        assert dom2 == dom and w2.word == ()


def regular(rs, lam):
    """Whether no root is orthogonal to lam: its dominant conjugate is
    strictly dominant."""
    return rs.isDominantRegular(rs.makeDominant(lam)[0])


def test_is_regular_examples():
    a1 = systemFromLabel("A1")
    assert regular(a1, (rat(1),))
    assert not regular(a1, (rat(0),))
    a2 = systemFromLabel("A2")
    assert not regular(a2, (rat(1), rat(0)))
    assert regular(a2, a2.rho)


def test_weyl_orbit_examples():
    a1 = systemFromLabel("A1")
    assert a1.weylOrbit((rat(2),)) == [(rat(-2),), (rat(2),)]
    assert a1.weylOrbit((rat(0),)) == [(rat(0),)]
    a2 = systemFromLabel("A2")
    assert len(a2.weylOrbit(a2.rho)) == 6


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "A1xA1"])
def test_orbit_size_divides_group_order(label):
    rs = systemFromLabel(label)
    order = rs.weylGroupOrder()
    rng = random.Random(5)
    for _ in range(20):
        lam = rand_weight(rs, rng, denom=2, span=3)
        size = len(rs.weylOrbit(lam))
        assert order % size == 0
        assert (size == order) == regular(rs, lam)


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "D4"])
def test_gram_weyl_invariance(label):
    rs = systemFromLabel(label)
    rng = random.Random(99)
    for _ in range(15):
        lam = rand_weight(rs, rng)
        mu = rand_weight(rs, rng)
        ip = rs.innerProduct(lam, mu)
        for i in range(len(rs.simple_positions)):
            assert rs.innerProduct(rs.reflect(i, lam), rs.reflect(i, mu)) == ip


def test_signed_orbit_balance():
    a2 = systemFromLabel("A2")
    signs = [a2.makeDominant(v)[1].sign for v in a2.weylOrbit(a2.rho)]
    assert len(signs) == 6
    assert sum(signs) == 0


def test_json_roundtrip():
    rs = systemFromLabel("A2xT1")
    # reports carry a system as its label
    assert rs.label == "A2xT1"
    assert systemFromLabel(rs.label) == rs
    lam = (rat(1, 2), rat(-3), rat(2))
    assert weightFromStrings(weightToStrings(lam)) == lam


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_coefficients_kept_from_the_closure(label):
    rs = systemFromLabel(label)
    *_, coefficients = fractionRootData(rs.factors)
    assert len(rs.intRootCoefficients) == len(rs.positiveRoots)
    for beta, coeffs in zip(rs.positiveRoots, rs.intRootCoefficients):
        assert all(type(c) is int for c in coeffs)
        assert coeffs == coefficients(beta)


def test_frame_and_pair_make_no_product_per_root(monkeypatch):
    # the frame keeps its gram and dual-frame products, the pair only the
    # gram it inherits (toG^T G toG); the root coefficients come from the
    # closure, and the coordinate changes are int dot products
    count = [0]
    real = ExactMatrix._matmul

    def counting(self, other):
        count[0] += 1
        return real(self, other)

    a2 = systemFromLabel("A2")
    monkeypatch.setattr(ExactMatrix, "_matmul", counting)
    buildFrame(a2)
    assert count[0] == 2
    count[0] = 0
    pairFromLabel("A4:T")
    assert count[0] == 2


def test_pair_torus():
    pair = pairFromLabel("A1:T")
    assert pair.h.factors == (("Torus", 1),)
    # the subgroup inherits the ambient gram, not the standalone identity
    assert pair.h.gram == [[rat(1, 2)]]
    assert pair.shift == (rat(1),)
    assert pair.pRoots == ((rat(2),),)
    assert pair.weightToH((rat(5),)) == (rat(5),)


def test_pair_u2():
    pair = pairFromLabel("A2:u2")
    assert pair.h.label == "A1xT1"
    assert pair.h.gram == [[rat(1, 2), rat(0)], [rat(0), rat(1, 6)]]
    assert pair.rhoG_H == (rat(1), rat(3))
    assert pair.shift == (rat(0), rat(3))
    assert sorted(pair.weightToH(a) for a in pair.pRoots) \
        == [(rat(-1), rat(3)), (rat(1), rat(3))]
    # round trip through the shared torus coordinates
    rng = random.Random(3)
    for _ in range(10):
        lam = rand_weight(pair.g, rng)
        assert pair.weightToG(pair.weightToH(lam)) == lam
    # the image of the G-weight lattice is the congruence sublattice q = m mod 2
    m, q = pair.weightToH((rat(1), rat(0)))
    assert (q - m) % 2 == 0


def test_pair_trivial_and_errors():
    pf = pairFromLabel("A1:full")
    assert pf.h is pf.g and pf.pRoots == ()
    assert pf.shift == (rat(0),)
    with pytest.raises(IncompatiblePair):
        equalRankPair(systemFromLabel("B2"), "keep=0")
    with pytest.raises(IncompatiblePair):
        pairFromLabel("A1")


def test_pair_keep_subsets_integral():
    a3 = systemFromLabel("A3")
    p = equalRankPair(a3, "keep=0,2")
    assert p.h.label == "A1xA1xT1"
    rng = random.Random(11)
    for _ in range(20):
        lam = tuple(rat(rng.randint(-4, 4)) for _ in range(3))
        lamH = p.weightToH(lam)
        # integral G-weights land on integral H-coordinates
        assert all(c.denominator == 1 for c in lamH)
        assert p.weightToG(lamH) == lam


def _check_against_oracle(rs, gram=None):
    simple, positive, g, rho, _ = fractionRootData(rs.factors, gram)
    assert rs.simpleRoots == simple
    assert rs.positiveRoots == positive
    assert rs.gram == g
    assert rs.rho == rho
    # the root data is int; the gram stays a matrix of Fractions
    for coords in (*rs.simpleRoots, *rs.positiveRoots, rs.rho):
        assert all(type(c) is int for c in coords)
    assert all(type(x) is Fraction for row in rs.gram for x in row)
    scale = math.lcm(*(x.denominator for row in rs.gram for x in row))
    assert rs.intGram == [[x * scale for x in row] for row in rs.gram]
    assert all(type(x) is int for row in rs.intGram for x in row)
    assert rs.gramScale == scale
    assert [alpha for _, alpha in rs.reflections] == rs.simpleRoots


@pytest.mark.parametrize("label", ALL_LABELS)
def test_int_core_matches_fraction_oracle(label):
    _check_against_oracle(systemFromLabel(label))


@pytest.mark.parametrize("pair", ["A2:u2", "A2:T", "A3:T", "A3:keep=0,1",
                                  "A4:T"])
def test_int_core_matches_fraction_oracle_on_inherited_gram(pair):
    p = pairFromLabel(pair)
    g = p.g
    # the H gram pairs the G images of the H coordinate vectors
    units = [p.weightToG(tuple(rat(int(i == j)) for j in range(g.rank)))
             for i in range(g.rank)]
    _check_against_oracle(p.h, [[g.innerProduct(u, v) for v in units]
                                for u in units])


@pytest.mark.parametrize("label", ["A2", "B2", "D4", "A1xT1"])
def test_orbit_on_ints_and_rationals(label):
    rs = systemFromLabel(label)
    rng = random.Random(8)
    for _ in range(5):
        u = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        orbit = rs.orbit(u)
        assert all(type(c) is int for v in orbit for c in v)
        assert rs.weylOrbit(u) == sorted(tuple(map(rat, v)) for v in orbit)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_orbit_walk_reaches_each_weight_once(label):
    rs = systemFromLabel(label)
    rng = random.Random("orbit-walk/" + label)
    units = [tuple(int(i == j) for j in range(rs.rank))
             for i in range(rs.rank)]
    ints = [tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            for _ in range(5)]
    rationals = [rand_weight(rs, rng) for _ in range(5)]
    for v in [rs.zeroWeight(), rs.rho, *units, *ints, *rationals]:
        orbit = rs.orbit(v)
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == seenSetOrbit(rs, v)
        assert rs.isDominant(orbit[0])
        assert rs.dominantOrbit(orbit[0]) == orbit


@pytest.mark.parametrize("label, solves", [("A4", 1), ("D4", 1), ("T2", 0)])
def test_construction_solves_the_cartan_matrix_once(label, solves,
                                                    monkeypatch):
    calls = {"inverse": 0, "_matmul": 0}
    for name in calls:
        def counted(self, *args, _call=getattr(ExactMatrix, name),
                    _name=name):
            calls[_name] += 1
            return _call(self, *args)
        monkeypatch.setattr(ExactMatrix, name, counted)
    systemFromLabel(label)
    assert calls == {"inverse": solves, "_matmul": 0}
