import random
from functools import reduce
from operator import add

import pytest

from diracforge.characters import (ConeSeries, FormalCharacter,
                                   polarizationWitness, sumSeries)
from diracforge.errors import (DiracforgeError, NonGenericPolarization,
                               NotIntegral, NonTrivialBaseAction,
                               PolarizationViolated, WindowTooSmall)
from diracforge.liecore import systemFromLabel, weightToStrings
from diracforge.polarized import (bundleIndex, polarizedExpand,
                                  vanishingCheck, vectorSpaceIndex)
from diracforge.rationals import rat

from helpers import fractionPolarizedExpand

T1 = systemFromLabel("T1")
T2 = systemFromLabel("T2")


def entries(series):
    return {tuple(int(c) for c in w): m for w, m in series.entries.items()}


def multiply_back(system, series, weights):
    out = series
    for w in weights:
        out = out.mulOneMinusExp(system.weight(w))
    return out


# ----------------------------------------------------- frozen rank one

def test_geometric_branch():
    s = polarizedExpand(T1, [(1,)], (-1,), 5)
    assert entries(s) == {(-k,): 1 for k in range(6)}
    assert s.window == 5


def test_flipped_branch():
    s = polarizedExpand(T1, [(1,)], (1,), 5)
    assert entries(s) == {(k,): -1 for k in range(1, 6)}


def test_branches_are_inverses_of_the_same_product():
    # both expansions multiply back to 1: the direction only picks the cone
    for alpha in [(-1,), (1,)]:
        s = polarizedExpand(T1, [(1,)], alpha, 7)
        back = multiply_back(T1, s, [(1,)])
        assert entries(back) == {(0,): 1}


def test_empty_fiber_is_the_complete_unit():
    s = polarizedExpand(T1, [], (1,), 3)
    assert entries(s) == {(0,): 1}
    assert s.window is None


# ------------------------------------------------------- window budget

def test_two_flipped_factors_share_the_budget():
    # weights {1, 1}, alpha = +1: product of two flipped tails
    s = polarizedExpand(T1, [(1,), (1,)], (1,), 4)
    assert entries(s) == {(2,): 1, (3,): 2, (4,): 3}
    back = multiply_back(T1, s, [(1,), (1,)])
    assert entries(back) == {(0,): 1}


def test_window_below_lowest_term_is_certified_empty():
    s = polarizedExpand(T1, [(1,), (1,)], (1,), 1)
    assert entries(s) == {}
    assert s.window == 1


def test_mixed_signs_multiply_back():
    weights = [(1, 0), (0, 1), (1, 1)]
    s = polarizedExpand(T2, weights, (-1, -2), 6)
    back = multiply_back(T2, s, weights)
    assert entries(back) == {(0, 0): 1}
    # (1,1) = (1,0) + (0,1): the overlap shows up as multiplicity two
    assert s.coefficient((-1, -1)) == 2


def test_direction_independence():
    # two generic directions give different cones, one common inverse
    weights = [(1, 0), (0, 1)]
    for alpha in [(1, 2), (-1, -2), (2, -1), (-2, 1)]:
        s = polarizedExpand(T2, weights, alpha, 8)
        back = multiply_back(T2, s, weights)
        assert entries(back) == {(0, 0): 1}


def test_rational_pairings_are_exact():
    s = polarizedExpand(T1, [(rat(1, 2),)], (1,), 2)
    assert {tuple(w): m for w, m in s.entries.items()} == {
        (rat(1, 2),): -1, (rat(1),): -1, (rat(3, 2),): -1, (rat(2),): -1}


# ------------------------------------------------------------ guards

def test_zero_pairing_raises():
    with pytest.raises(NonGenericPolarization):
        polarizedExpand(T2, [(1, 0), (0, 1)], (0, 1), 4)


def test_zero_weight_raises():
    with pytest.raises(NonGenericPolarization):
        polarizedExpand(T1, [(0,)], (1,), 4)


def test_zero_direction_raises():
    with pytest.raises(DiracforgeError):
        polarizedExpand(T1, [(1,)], (0,), 4)


# ------------------------------------------------------ shifted index

def test_shift_translates_and_strictifies():
    s = vectorSpaceIndex(T1, [(1,)], (1,), (1,), 5)
    assert entries(s) == {(k,): -1 for k in range(2, 7)}
    assert s.window == 6
    ok, witness = polarizationWitness(s, (1,), strict=True)
    assert ok and witness is None


def test_fractional_shift_rejected():
    with pytest.raises(NotIntegral):
        vectorSpaceIndex(T1, [(1,)], (1,), (rat(1, 2),), 5)


def test_strictness_needs_positive_shift_pairing():
    # zero shift leaves the k=0 constant term sitting at the origin
    s = vectorSpaceIndex(T1, [(-1,)], (1,), (0,), 5)
    ok, witness = polarizationWitness(s, (1,), strict=True)
    assert not ok and tuple(witness) == (rat(0),)


# ----------------------------------------------------------- bundles

def test_trivial_base_scales():
    base = FormalCharacter(T1, {(rat(0),): 2})
    s = bundleIndex(T1, base, [(1,)], (1,), (0,), 5)
    assert entries(s) == {(k,): -2 for k in range(1, 6)}


def test_single_point_base_matches_vector_space_index():
    base = FormalCharacter(T1, {(rat(0),): 1})
    lhs = bundleIndex(T1, base, [(1,)], (1,), (2,), 5)
    rhs = vectorSpaceIndex(T1, [(1,)], (1,), (2,), 5)
    assert entries(lhs) == entries(rhs)
    assert lhs.window == rhs.window


def test_empty_fiber_returns_base_unchanged():
    base = FormalCharacter(T2, {(rat(0), rat(0)): 3})
    s = bundleIndex(T2, base, [], (1, 1), (0, 0), 4)
    assert entries(s) == {(0, 0): 3}
    assert s.window is None


def test_moving_base_rejected_when_polarization_requested():
    base = FormalCharacter(T1, {(rat(1),): 1})
    with pytest.raises(NonTrivialBaseAction):
        bundleIndex(T1, base, [(1,)], (1,), (0,), 5)


def test_moving_base_allowed_explicitly():
    base = FormalCharacter(T1, {(rat(0),): 1, (rat(1),): 1})
    s = bundleIndex(T1, base, [(1,)], (1,), (0,), 5,
                    requirePolarized=False)
    # two shifted flipped tails; windows intersect at the smaller one
    assert s.window == 5
    assert entries(s) == {(1,): -1, (2,): -2, (3,): -2, (4,): -2, (5,): -2}


def test_empty_base_gives_zero_series():
    base = FormalCharacter(T1, {})
    s = bundleIndex(T1, base, [(1,)], (1,), (0,), 5)
    assert s.entries == {}


# ---------------------------------------------------------- vanishing

def test_vanishing_check_passes_strict():
    s = vectorSpaceIndex(T1, [(1,)], (1,), (1,), 5)
    report = vanishingCheck(s, (1,))
    assert report["polarized"] and report["trivialCoefficient"] == 0


def test_vanishing_check_flags_the_origin():
    s = polarizedExpand(T1, [(-1,)], (1,), 5)
    with pytest.raises(PolarizationViolated):
        vanishingCheck(s, (1,))


def test_vanishing_check_loose_mode():
    s = polarizedExpand(T1, [(-1,)], (1,), 5)
    report = vanishingCheck(s, (1,), strict=False)
    assert report["polarized"] and not report["strict"]


# ----------------------------------------- integer kernel vs the oracle

# label -> denominator of the pairing functional of the first fundamental
# direction: the rational grams of A1xT1, A2, B2 and C2 show up here
KERNEL_SYSTEMS = {"T1": 1, "T2": 1, "T3": 1, "A1xT1": 2,
                  "A2": 3, "B2": 2, "C2": 2}


def random_weight(rng, rank, den=1):
    return tuple(rat(rng.randint(-2 * den, 2 * den), den)
                 for _ in range(rank))


@pytest.mark.parametrize("label", sorted(KERNEL_SYSTEMS))
def test_functional_denominator(label):
    rs = systemFromLabel(label)
    a, den = rs.pairingFunctional((1,) + (0,) * (rs.rank - 1))
    assert den == KERNEL_SYSTEMS[label]
    assert all(type(x) is int for x in a)


@pytest.mark.parametrize("label", sorted(KERNEL_SYSTEMS))
def test_pairing_matches_inner_product(label):
    rs = systemFromLabel(label)
    rng = random.Random("pairing/" + label)
    for _ in range(40):
        pol = random_weight(rng, rs.rank, rng.choice([1, 1, 2, 3]))
        if not any(pol):
            continue
        series = ConeSeries(rs, {}, pol, None, None)
        a, den = rs.pairingFunctional(pol)
        for _ in range(5):
            w = random_weight(rng, rs.rank, rng.choice([1, 1, 2, 3]))
            assert series.pairing(w) == rs.innerProduct(w, pol)
            assert rat(sum(x * c for x, c in zip(a, w))) / den \
                == rs.innerProduct(w, pol)


@pytest.mark.parametrize("label", sorted(KERNEL_SYSTEMS))
def test_kernel_matches_fraction_oracle(label):
    rs = systemFromLabel(label)
    rng = random.Random("kernel/" + label)
    signs = set()
    rational = 0
    checked = 0
    while checked < 12:
        den = rng.choice([1, 1, 2, 3])
        fiber = [random_weight(rng, rs.rank, den)
                 for _ in range(rng.randint(1, 3))]
        alpha = random_weight(rng, rs.rank)
        window = rng.choice([rat(2), rat(3), rat(7, 2), rat(10, 3)])
        if not any(alpha) or not all(any(w) for w in fiber):
            continue
        try:
            entries, offset = fractionPolarizedExpand(rs, fiber, alpha,
                                                      window)
        except NonGenericPolarization:
            with pytest.raises(NonGenericPolarization):
                polarizedExpand(rs, fiber, alpha, window)
            continue
        series = polarizedExpand(rs, fiber, alpha, window)
        assert series.entries == entries
        assert series.offset == offset and series.window == window
        signs.update(rs.innerProduct(w, alpha) > 0 for w in fiber)
        rational += any(c.denominator > 1 for w in fiber for c in w)
        checked += 1
    assert signs == {True, False}
    assert rational > 0


# -------------------------------------------------------- window edges

@pytest.mark.parametrize("label,fiber,alpha,window,edge,past", [
    ("T2", [(0, 1)], (1, 2), 6, (0, 3), (0, 4)),          # pairing 2k
    ("T2", [(0, 1)], (1, 2), 7, (0, 3), (0, 4)),          # window missed
    ("T1", [(1,)], (-1,), 4, (-4,), (-5,)),               # geometric side
    ("A2", [(0, 1)], (rat(3, 2), 0), rat(7, 2), (0, 7), (0, 8)),  # k/2
    ("A2", [(0, 1)], (1, 0), rat(7, 2), (0, 10), (0, 11)),        # k/3
])
def test_term_on_the_window_is_kept(label, fiber, alpha, window, edge, past):
    rs = systemFromLabel(label)
    series = polarizedExpand(rs, fiber, alpha, window)
    assert series.pairing(edge) <= window < series.pairing(past)
    flipped = rs.innerProduct(fiber[0], alpha) > 0
    assert series.coefficient(edge) == (-1 if flipped else 1)
    assert rs.weight(past) not in series.entries
    with pytest.raises(WindowTooSmall):
        series.coefficient(past)
    # the constructor draws the same line
    again = ConeSeries(rs, {edge: 1, past: 1}, alpha, None, window)
    assert set(again.entries) == {rs.weight(edge)}


@pytest.mark.parametrize("lower,edge,past", [
    (rat(-7, 2), (0, -7), (0, -8)),   # attained: pairing k/2
    (rat(-10, 3), (0, -6), (0, -7)),  # missed: -3 kept, -7/2 dropped
])
def test_term_on_the_lower_edge_is_kept(lower, edge, past):
    a2 = systemFromLabel("A2")
    alpha = (rat(3, 2), 0)
    s = ConeSeries(a2, {edge: 1, past: 1, (0, 0): 1}, alpha, None, 1,
                   lower=lower)
    assert set(s.entries) == {a2.weight(edge), a2.zeroWeight()}
    assert s.pairing(past) < lower <= s.pairing(edge)


@pytest.mark.parametrize("label,den", [("T2", 1), ("A2", 1), ("A2", 2),
                                       ("C2", 3)])
def test_keyed_is_the_rational_order(label, den):
    rs = systemFromLabel(label)
    rng = random.Random("keyed/%s/%d" % (label, den))
    entries = {random_weight(rng, rs.rank, den): rng.randint(1, 5)
               for _ in range(40)}
    polarizer = (1,) * rs.rank
    # the same weights with int coordinates where integral
    as_ints = {tuple(c.numerator if c.denominator == 1 else c for c in w): m
               for w, m in entries.items()}
    for table in (entries, as_ints):
        for order in (list(table), sorted(table)):  # as built, and sorted
            series = ConeSeries(rs, {w: table[w] for w in order}, polarizer,
                                None, None)
            assert series.keyed() == [
                (",".join(weightToStrings(w)), m)
                for w, m in sorted(series.entries.items())]
            chi = FormalCharacter(rs, {w: table[w] for w in order})
            assert chi.keyed() == series.keyed()


# ------------------------------------------------------ one-step sums

def test_moving_base_bundle_equals_chained_sum():
    t2 = systemFromLabel("T2")
    base = FormalCharacter(t2, {(0, 0): 2, (1, 0): 1, (0, 1): -1,
                                (1, 1): 3})
    fiber, alpha = [(1, 0), (0, 1)], (1, 2)
    got = bundleIndex(t2, base, fiber, alpha, (0, 0), 9,
                      requirePolarized=False)
    piece = vectorSpaceIndex(t2, fiber, alpha, (0, 0), 9)
    chain = reduce(add, [piece.shift(w).scale(m)
                         for w, m in sorted(base.entries.items())])
    assert got == chain
    assert got.window == 9 and got.entries


def test_sum_bounds_follow_the_chain_in_every_order():
    t1 = systemFromLabel("T1")
    parts = [ConeSeries(t1, {(k,): 1 for k in range(-3, 6)}, (1,),
                        3, 5),
             ConeSeries(t1, {(k,): 2 for k in range(-1, 4)}, (1,),
                        None, 4, lower=-1),
             ConeSeries(t1, {(k,): -1 for k in range(0, 9)}, (1,),
                        0, None),
             ConeSeries(t1, {(k,): 1 for k in range(-2, 3)}, (1,),
                        None, 7, lower=-2)]
    for order in [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0), (0, 2, 1, 3),
                  (2, 0, 1, 3)]:
        chosen = [parts[i] for i in order]
        assert sumSeries(chosen) == reduce(add, chosen)
