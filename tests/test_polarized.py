import pytest

from diracforge.characters import FormalCharacter, polarizationWitness
from diracforge.errors import (DiracforgeError, NonGenericPolarization,
                               NotIntegral, NonTrivialBaseAction,
                               PolarizationViolated)
from diracforge.liecore import systemFromLabel
from diracforge.polarized import (bundleIndex, polarizedExpand,
                                  vanishingCheck, vectorSpaceIndex)
from diracforge.rationals import rat

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
