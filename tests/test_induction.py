import pytest

from diracforge.characters import ConeSeries, FormalCharacter
from diracforge.dirac import kernelIndex
from diracforge.errors import (DiracforgeError, NotDominant,
                               TransferMismatch, WindowUnderflow)
from diracforge.induction import (diracInduct, inductCharacter,
                                  multiplicityTransferCheck)
from diracforge.characters import restrictCharacter
from diracforge.exactmat import ExactMatrix
from diracforge.liecore import pairFromLabel
from diracforge.rationals import rat

IRR = FormalCharacter.IRREDUCIBLE


def irr(pair, entries):
    return FormalCharacter(pair.h, entries, basis=IRR)


# ------------------------------------------------------------- point map

def test_su2_torus_frozen_values():
    pair = pairFromLabel("A1:T")
    assert dict(diracInduct(pair, (3,)).entries) == {(rat(2),): 1}
    assert dict(diracInduct(pair, (0,)).entries) == {}
    assert dict(diracInduct(pair, (-3,)).entries) == {(rat(2),): -1}
    assert dict(diracInduct(pair, (1,)).entries) == {(rat(0),): 1}


def test_weyl_alternation_su2():
    pair = pairFromLabel("A1:T")
    for k in range(7):
        plus = diracInduct(pair, (k,))
        minus = diracInduct(pair, (-k,))
        assert minus == plus.scale(-1)


def test_weyl_alternation_full_torus():
    # the orbit of xi = lam + rho_H under W(G) maps to one G-irreducible
    # with alternating signs
    pair = pairFromLabel("A2:T")
    lam = (rat(2), rat(1))
    base = diracInduct(pair, lam)
    assert list(base.entries.values()) == [1]
    for xi in pair.g.weylOrbit(lam):
        dom, w = pair.g.makeDominant(xi)
        assert diracInduct(pair, xi) == base.scale(w.sign)


def test_wall_annihilation():
    pair = pairFromLabel("A2:T")
    # <(1,-1), (alpha1+alpha2) dual> = 0: singular, so the map gives zero
    assert diracInduct(pair, (1, -1)).entries == {}
    assert diracInduct(pair, (0, 0)).entries == {}
    assert diracInduct(pair, (-1, 0)).entries == {}


def test_off_lattice_weights_vanish():
    pair = pairFromLabel("A2:u2")
    # H-integral coordinates that are not restrictions of G-weights
    assert diracInduct(pair, (0, 1)).entries == {}
    assert diracInduct(pair, (1, 3)).entries == {}
    assert diracInduct(pair, (2, 6)).entries == {}


def test_u2_frozen_values():
    pair = pairFromLabel("A2:u2")
    assert dict(diracInduct(pair, (0, 3)).entries) == {(rat(0), rat(0)): 1}
    assert dict(diracInduct(pair, (1, 0)).entries) == {(rat(0), rat(0)): -1}


@pytest.mark.parametrize("k", range(-4, 5))
def test_matches_kernel_index_oracle(k):
    pair = pairFromLabel("A1:T")
    assert dict(diracInduct(pair, (k,)).entries) == \
        dict(kernelIndex(pair, {(k,): 1}).entries)


@pytest.mark.parametrize("label,mu", [
    ("A3:T", (1, 1, 1)), ("A3:keep=0,1", (0, 1, 8)), ("A3:keep=0,2", (2, 0, 0)),
])
def test_matches_kernel_index_oracle_on_a3(label, mu):
    pair = pairFromLabel(label)
    want = dict(diracInduct(pair, mu).entries)
    assert want
    assert dict(kernelIndex(pair, {mu: 1}).entries) == want


@pytest.mark.parametrize("label,mu", [
    ("A1xT1:T", (2, 2)), ("A1xT1:T", (-2, 2)), ("A1xT1:T", (1, 0)),
    ("A1xT2:T", (3, 1, -1)),
])
def test_matches_kernel_index_oracle_with_a_torus_factor(label, mu):
    pair = pairFromLabel(label)
    want = dict(diracInduct(pair, mu).entries)
    assert want
    assert dict(kernelIndex(pair, {mu: 1}).entries) == want


def test_torus_factor_coordinates_follow_the_charges():
    pair = pairFromLabel("A1xT2:T")
    assert pair.h.factors == (("Torus", 3),)
    assert pair.weightToH((3, 1, -1)) == (3, 1, -1)
    assert pair.pRoots == ((2, 0, 0),)


# ------------------------------------------------------ linear extension

def test_linearity_cancels():
    pair = pairFromLabel("A1:T")
    chi = irr(pair, {(rat(3),): 1, (rat(-3),): 1})
    assert inductCharacter(pair, chi).entries == {}


def test_trivial_character_inducts_to_zero():
    pair = pairFromLabel("A1:T")
    assert inductCharacter(pair, irr(pair, {(rat(0),): 1})).entries == {}


def test_weight_basis_input_decomposed_first():
    pair = pairFromLabel("A1:T")
    chi = FormalCharacter(pair.h, {(rat(3),): 2})
    out = inductCharacter(pair, chi)
    assert dict(out.entries) == {(rat(2),): 2}


def test_full_pair_is_identity():
    pair = pairFromLabel("A2:full")
    chi = irr(pair, {(rat(1), rat(1)): 2, (rat(0), rat(0)): 3})
    assert inductCharacter(pair, chi) == FormalCharacter(
        pair.g, chi.entries, basis=IRR)


# -------------------------------------------------------------- series

def test_series_window_shrinks_by_shift():
    pair = pairFromLabel("A1:T")
    sigma = ConeSeries(pair.h, {(rat(k),): 1 for k in range(8)},
                       (rat(1),), 0, rat(7, 2))
    out = inductCharacter(pair, sigma)
    # <shift, polarizer> = 1/2 under the inherited torus gram
    assert out.window == rat(3)
    assert out.offset == 0
    assert out.entries == {(rat(k),): 1 for k in range(7)}


def test_series_underflow():
    pair = pairFromLabel("A1:T")
    sigma = ConeSeries(pair.h, {(rat(0),): 1}, (rat(1),), 0, rat(1, 4))
    with pytest.raises(WindowUnderflow):
        inductCharacter(pair, sigma)


def test_series_needs_support_bound():
    pair = pairFromLabel("A1:T")
    sigma = ConeSeries(pair.h, {(rat(1),): 1}, (rat(1),), None, rat(4))
    with pytest.raises(WindowUnderflow):
        inductCharacter(pair, sigma)


def test_series_rejects_two_sided_window():
    pair = pairFromLabel("A1:T")
    sigma = ConeSeries(pair.h, {(rat(1),): 1}, (rat(1),), None, rat(4),
                       lower=rat(0))
    with pytest.raises(WindowUnderflow):
        inductCharacter(pair, sigma)


def test_series_polarizer_must_map_dominant():
    pair = pairFromLabel("A1:T")
    sigma = ConeSeries(pair.h, {(rat(-1),): 1}, (rat(-1),), 0, rat(4))
    with pytest.raises(DiracforgeError):
        inductCharacter(pair, sigma)


def test_series_entries_must_be_labels():
    pair = pairFromLabel("A2:u2")
    sigma = ConeSeries(pair.h, {(rat(-1), rat(0)): 1}, (rat(0), rat(1)),
                       rat(0), rat(4))
    with pytest.raises(NotDominant):
        inductCharacter(pair, sigma)


def test_complete_series_keeps_no_window():
    pair = pairFromLabel("A1:T")
    sigma = ConeSeries(pair.h, {(rat(3),): 1}, (rat(1),), None, None)
    out = inductCharacter(pair, sigma)
    assert out.window is None
    assert out.entries == {(rat(2),): 1}


# ---------------------------------------------------------- shift + transfer

def test_spinor_shift_values():
    assert pairFromLabel("A1:T").shift == (rat(1),)
    assert pairFromLabel("A2:u2").shift == (rat(0), rat(3))
    assert pairFromLabel("A2:full").shift == (rat(0), rat(0))


def test_transfer_on_su2_examples():
    pair = pairFromLabel("A1:T")
    rep = multiplicityTransferCheck(pair, irr(pair, {(rat(0),): 1}))
    assert rep["match"] and rep["trivialMultiplicityG"] == 1
    rep = multiplicityTransferCheck(pair, irr(pair, {(rat(2),): 1}))
    assert rep["match"] and rep["trivialMultiplicityG"] == 0


def test_transfer_identity_for_full_pair():
    pair = pairFromLabel("A2:full")
    chi = irr(pair, {(rat(0), rat(0)): 3, (rat(1), rat(1)): 2})
    rep = multiplicityTransferCheck(pair, chi)
    assert rep["trivialMultiplicityG"] == rep["trivialMultiplicityH"] == 3


def test_transfer_on_u2_trivial():
    pair = pairFromLabel("A2:u2")
    rep = multiplicityTransferCheck(pair, irr(pair, {(rat(0), rat(0)): 1}))
    assert rep["match"] and rep["trivialMultiplicityG"] == 1


def test_transfer_mismatch_raises_with_counterexample():
    pair = pairFromLabel("A1:T")
    with pytest.raises(TransferMismatch):
        multiplicityTransferCheck(pair, irr(pair, {(rat(-2),): 1}))


def test_restrict_and_induct_make_no_matrix_product(monkeypatch):
    # once the pair is built, weightToH and weightToG are int dot products
    # and the straightening reflects and pairs on ints
    pair = pairFromLabel("A2:u2")
    count = [0]
    real = ExactMatrix._matmul

    def counting(self, other):
        count[0] += 1
        return real(self, other)

    monkeypatch.setattr(ExactMatrix, "_matmul", counting)
    dec = restrictCharacter(pair, (2, 1))
    assert dec
    induced = inductCharacter(pair, irr(pair, dec))
    weights = FormalCharacter(pair.h, {(1, 3): 1, (-1, 3): 1})
    assert inductCharacter(pair, weights) == diracInduct(pair, (1, 3))
    assert count[0] == 0
    assert induced.basis == IRR
