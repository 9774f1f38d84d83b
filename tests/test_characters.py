import itertools
import json
import pathlib
import random

import pytest

from diracforge import cache, characters
from diracforge.characters import (ConeSeries, FormalCharacter, _computed,
                                   _dominant_below, _freudenthal,
                                   characterToSeries, decomposeCharacter,
                                   dualWeight, irreducibleCharacter,
                                   polarizationWitness, restrictCharacter,
                                   sumSeries, tensorDecompose, trivialMultiplicity,
                                   weylDimension)
from diracforge.errors import (DiracforgeError, NotDominant, NotIntegral,
                               SystemMismatch, WindowTooSmall)
from diracforge.liecore import (RootSystem, pairFromLabel, systemFromLabel,
                                weightString)
from diracforge.rationals import rat

from diracforge.cli import main
from diracforge.induction import diracInduct
from diracforge.polarized import bundleIndex, polarizedExpand

from helpers import (ALL_LABELS, boxDominantBelow, fractionDecompose,
                     intWhenIntegral, isWeylInvariant, oldCacheDocument,
                     oldCharReport, oracleWeights)

A1 = systemFromLabel("A1")
A2 = systemFromLabel("A2")
T1 = systemFromLabel("T1")


def dominant_box(rs, top):
    ranges = [range(top + 1) if i in rs.simple_positions else (0,)
              for i in range(rs.rank)]
    return [tuple(map(rat, c)) for c in itertools.product(*ranges)]


# ------------------------------------------------------------ frozen examples

def test_sl2_ladders():
    # V_n for sl2 is the (n+1)-dimensional string n, n-2, ..., -n
    for n in range(9):
        chi = irreducibleCharacter(A1, (n,))
        expected = {(rat(n - 2 * k),): 1 for k in range(n + 1)}
        assert chi.entries == expected


def test_adjoint_of_a2():
    chi = irreducibleCharacter(A2, (1, 1))
    assert chi.dimension() == 8
    assert chi.coefficient((0, 0)) == 2
    roots = set(A2.positiveRoots) | {tuple(-c for c in a) for a in A2.positiveRoots}
    assert set(chi.support()) == roots | {A2.zeroWeight()}
    assert all(chi.coefficient(a) == 1 for a in roots)


def test_a2_interior_multiplicity():
    chi = irreducibleCharacter(A2, (2, 1))
    assert chi.dimension() == 15
    assert chi.coefficient((1, 0)) == 2


def test_trivial_and_torus_characters():
    assert irreducibleCharacter(A2, (0, 0)).entries == {(rat(0), rat(0)): 1}
    chi = irreducibleCharacter(T1, (5,))
    assert chi.entries == {(rat(5),): 1}
    assert FormalCharacter(A2, {(0, 0): 1}).dimension() == 1


def test_dominant_weights_below():
    assert sorted(mu for _, mu in _dominant_below(A1, (4,))) \
        == [(0,), (2,), (4,)]
    assert {mu for _, mu in _dominant_below(A2, (1, 1))} == {(0, 0), (1, 1)}


def _dominant_cases():
    """(label, lam) for every system and each dominant int lam with
    coordinate sum at most 4 (3 at rank 4)."""
    for label in ALL_LABELS:
        rs = systemFromLabel(label)
        top = 3 if rs.rank == 4 else 4
        for lam in itertools.product(range(top + 1), repeat=rs.rank):
            if sum(lam) <= top:
                yield pytest.param(label, lam,
                                   id="%s-%s" % (label, weightString(lam)))


@pytest.mark.parametrize("label,lam", _dominant_cases())
def test_fused_freudenthal_matches_the_reflecting_oracle(label, lam):
    rs = systemFromLabel(label)
    below = _dominant_below(rs, lam)
    assert len(below) == len(set(below))
    assert set(below) == set(boxDominantBelow(rs, lam))
    assert _freudenthal(rs, lam) == oracleWeights(rs, lam)


def test_cold_kernel_walks_each_orbit_once_and_formats_once(monkeypatch):
    def refused(*args):
        raise AssertionError("the kernel reflects into the chamber")
    monkeypatch.setattr(RootSystem, "makeDominant", refused)
    monkeypatch.setattr(RootSystem, "orbit", refused)
    formatted = []

    class Counted(str):
        def __mod__(self, w):
            formatted.append(w)
            return str.__mod__(self, w)

    monkeypatch.setattr(characters, "_int_format",
                        lambda rank, _fmt=characters._int_format:
                        Counted(_fmt(rank)))
    d4 = systemFromLabel("D4")
    weights, body = _computed(d4, (1, 1, 2, 1))
    entries = json.loads(body)
    assert len(weights) == len(entries) == 1152
    assert sorted(formatted) == sorted(weights)
    assert list(entries) == sorted(entries)
    assert cache.load(d4, (1, 1, 2, 1)) == body


def test_rejects_bad_highest_weights():
    with pytest.raises(NotDominant):
        irreducibleCharacter(A1, (-1,))
    with pytest.raises(NotIntegral):
        irreducibleCharacter(A1, (rat(1, 2),))


# ------------------------------------------------------------------- oracles

# a handful of weights on the larger systems, where a whole box costs seconds
PICKED = {
    "A3": ((1, 0, 1), (2, 1, 0), (0, 2, 1)),
    "A4": ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)),
    "D4": ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 1)),
}


def weights_of(rs, top):
    """A box of dominant weights for an int top, else the weights given."""
    if isinstance(top, int):
        return dominant_box(rs, top)
    return [tuple(map(rat, lam)) for lam in top]


def picked(*labels):
    return [pytest.param(label, PICKED[label], id=label + "-picked")
            for label in labels]


@pytest.mark.parametrize("label,top", [("A1", 6), ("A2", 3), ("A3", 2),
                                       ("B2", 2), ("C2", 2), ("A1xT1", 3)]
                         + picked("A4", "D4"))
def test_dimension_matches_weyl_product_formula(label, top):
    rs = systemFromLabel(label)
    for lam in weights_of(rs, top):
        assert irreducibleCharacter(rs, lam).dimension() == weylDimension(rs, lam)


def signed_orbit(rs, lam):
    """{w(lam): sign(w)} over the Weyl group, for a regular lam."""
    return {v: rs.makeDominant(v)[1].sign for v in rs.weylOrbit(lam)}


@pytest.mark.parametrize("label,top", [("A1", 5), ("A2", 2), ("B2", 2), ("C2", 2)]
                         + picked("A3", "A4", "D4"))
def test_weyl_character_identity(label, top):
    # chi_lam * sum_w sign(w) e^{w rho} == sum_w sign(w) e^{w(lam+rho)}
    rs = systemFromLabel(label)
    denom = FormalCharacter(rs, signed_orbit(rs, rs.rho))
    for lam in weights_of(rs, top):
        chi = irreducibleCharacter(rs, lam)
        lam_rho = tuple(a + b for a, b in zip(lam, rs.rho))
        numer = FormalCharacter(rs, signed_orbit(rs, lam_rho))
        assert chi.convolve(denom) == numer


@pytest.mark.parametrize("lam,zero_mult", [
    ((1, 0, 0, 0), 0),  # the vector representation C^8
    ((2, 0, 0, 0), 3),  # Sym^2 C^8 minus the trivial: four e_i - e_i, less one
    ((0, 1, 0, 0), 4),  # the adjoint: the rank
])
def test_d4_zero_weight_multiplicities(lam, zero_mult):
    D4 = systemFromLabel("D4")
    assert irreducibleCharacter(D4, lam).coefficient(D4.zeroWeight()) == zero_mult


def test_inherited_rational_gram():
    # h of A2:u2 is A1xT1 with the gram inherited from A2, whose denominators
    # are not 1; V_(n, t) is still the string n, n-2, ..., -n at charge t
    h = pairFromLabel("A2:u2").h
    assert any(x.denominator > 1 for row in h.gram for x in row)
    for n in range(4):
        for t in (-3, 0, 2):
            chi = irreducibleCharacter(h, (n, t))
            assert chi.entries == {(rat(n - 2 * k), rat(t)): 1
                                   for k in range(n + 1)}


@pytest.mark.parametrize("label,top", [("A1", 4), ("A2", 2), ("B2", 2)])
def test_characters_are_weyl_invariant(label, top):
    rs = systemFromLabel(label)
    for lam in dominant_box(rs, top):
        assert isWeylInvariant(irreducibleCharacter(rs, lam))


# ------------------------------------------------------------ decompositions

def test_tensor_examples():
    assert tensorDecompose(A1, (1,), (1,)) == {(rat(2),): 1, (rat(0),): 1}
    assert tensorDecompose(A2, (1, 0), (1, 0)) == {(rat(2), rat(0)): 1,
                                                   (rat(0), rat(1)): 1}
    # tensoring with the trivial representation changes nothing
    assert tensorDecompose(A2, (1, 1), (0, 0)) == {(rat(1), rat(1)): 1}


def test_tensor_symmetry_and_dimension():
    rng = random.Random(7)
    for _ in range(6):
        lam = (rng.randint(0, 3),)
        mu = (rng.randint(0, 3),)
        left = tensorDecompose(A1, lam, mu)
        assert left == tensorDecompose(A1, mu, lam)
        total = sum(m * weylDimension(A1, w) for w, m in left.items())
        assert total == weylDimension(A1, lam) * weylDimension(A1, mu)
    lam, mu = (1, 0), (1, 1)
    assert tensorDecompose(A2, lam, mu) == tensorDecompose(A2, mu, lam)


def test_tensor_associativity():
    def expand(rs, dec, nu):
        out = {}
        for w, m in dec.items():
            for v, k in tensorDecompose(rs, w, nu).items():
                out[v] = out.get(v, 0) + m * k
        return out

    for rs, triple in [(A1, ((2,), (1,), (3,))),
                       (A2, ((1, 0), (0, 1), (1, 1)))]:
        lam, mu, nu = triple
        left = expand(rs, tensorDecompose(rs, lam, mu), nu)
        right = expand(rs, tensorDecompose(rs, mu, nu), lam)
        assert left == right


def test_decompose_virtual_character():
    chi = irreducibleCharacter(A2, (1, 1)) - irreducibleCharacter(A2, (0, 0)).scale(3)
    dec = decomposeCharacter(chi)
    assert dec.entries == {(rat(1), rat(1)): 1, (rat(0), rat(0)): -3}
    assert trivialMultiplicity(chi) == -3


def test_decompose_rejects_non_characters():
    lopsided = FormalCharacter(A1, {(1,): 1})
    with pytest.raises(DiracforgeError):
        decomposeCharacter(lopsided)
    adjoint = irreducibleCharacter(A2, (1, 1)).entries
    moved = dict(adjoint)
    moved[(-1, 3)] = moved.pop((-1, 2))
    off_by_one = dict(adjoint)
    off_by_one[(2, -1)] += 1
    # the peel takes (1) first and leaves (-1) unmatched, but it still
    # reaches (1/2), so NotIntegral wins over the broken orbit
    half_and_broken = FormalCharacter(A1, {(1,): 1, (rat(1, 2),): 1})
    # the same error and message as the Fraction peel
    for chi in (lopsided, FormalCharacter(A2, {(1, 0): 1, (0, 0): 1}),
                FormalCharacter(A2, moved), FormalCharacter(A2, off_by_one),
                FormalCharacter(A2, {(-1, 0): 1}), half_and_broken):
        with pytest.raises(DiracforgeError) as want:
            fractionDecompose(chi)
        with pytest.raises(DiracforgeError) as got:
            decomposeCharacter(chi)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
    with pytest.raises(NotIntegral):
        decomposeCharacter(half_and_broken)


def test_restriction_examples():
    pair = pairFromLabel("A1:T")
    assert restrictCharacter(pair, (2,)) == {(rat(-2),): 1, (rat(0),): 1,
                                             (rat(2),): 1}
    pair = pairFromLabel("A2:u2")
    assert restrictCharacter(pair, (1, 0)) == {(rat(1), rat(1)): 1,
                                               (rat(0), rat(-2)): 1}


def test_restriction_conserves_dimension():
    for label, tops in [("A1:T", [(0,), (1,), (4,)]),
                        ("A2:u2", [(1, 0), (1, 1), (2, 1)]),
                        ("A2:T", [(1, 1)])]:
        pair = pairFromLabel(label)
        for lam in tops:
            dec = restrictCharacter(pair, lam)
            total = sum(m * weylDimension(pair.h, w) for w, m in dec.items())
            assert total == weylDimension(pair.g, lam)


def test_restriction_along_identity_pair():
    pair = pairFromLabel("A2:full")
    assert restrictCharacter(pair, (2, 1)) == {(rat(2), rat(1)): 1}


def test_trivial_multiplicity_examples():
    square = irreducibleCharacter(A1, (1,)).convolve(irreducibleCharacter(A1, (1,)))
    assert trivialMultiplicity(square) == 1
    assert trivialMultiplicity(irreducibleCharacter(A2, (1, 1))) == 0
    assert trivialMultiplicity(FormalCharacter(A2, {(0, 0): 1})) == 1


def test_dual_weights():
    assert dualWeight(A2, (1, 0)) == (rat(0), rat(1))
    assert dualWeight(A2, (2, 1)) == (rat(1), rat(2))
    assert dualWeight(A1, (3,)) == (rat(3),)
    # self-dual: tensor with the dual contains the trivial exactly once
    dec = tensorDecompose(A2, (1, 0), dualWeight(A2, (1, 0)))
    assert dec[(rat(0), rat(0))] == 1


def test_character_arithmetic_guards():
    one = FormalCharacter(A1, {(0,): 1})
    irr = FormalCharacter(A1, {(0,): 1}, FormalCharacter.IRREDUCIBLE)
    with pytest.raises(SystemMismatch):
        one.convolve(FormalCharacter(T1, {(0,): 1}))
    with pytest.raises(DiracforgeError):
        one + irr
    with pytest.raises(DiracforgeError):
        irr.convolve(irr)


def test_multiplicities_are_checked_not_truncated():
    # an integral Fraction is its int; anything else is refused, never cut
    chi = FormalCharacter(A1, {(0,): rat(3), (2,): rat(-4, 2), (4,): 0})
    assert chi.entries == {(0,): 3, (2,): -2}
    assert all(type(m) is int for m in chi.entries.values())
    series = ConeSeries(A1, {(0,): rat(3)}, (1,), None, None)
    assert series.entries == {(0,): 3}
    assert type(series.entries[(0,)]) is int
    build = [lambda e: FormalCharacter(A1, e),
             lambda e: FormalCharacter(A1, e, FormalCharacter.IRREDUCIBLE),
             lambda e: ConeSeries(A1, e, (1,), None, None)]
    for make in build:
        for bad in (2.7, 1.0, 0.0, True, False, "1"):
            with pytest.raises(TypeError, match=r"multiplicity at \(2\)"):
                make({(0,): 1, (2,): bad})
        with pytest.raises(NotIntegral,
                           match=r"^multiplicity 3/2 at \(2\) is not an "
                                 r"integer$"):
            make({(0,): 1, (2,): rat(3, 2)})


def test_character_file_round_trip():
    chi = irreducibleCharacter(A2, (1, 1))
    again = FormalCharacter.from_lines(chi.to_lines())
    assert again == chi
    dec = decomposeCharacter(chi - FormalCharacter(A2, {(0, 0): 1}))
    again = FormalCharacter.from_lines(dec.to_lines())
    assert again == dec and again.basis == FormalCharacter.IRREDUCIBLE
    with pytest.raises(DiracforgeError):
        FormalCharacter.from_lines(["A2 half-basis", "0,0 1"])


# ------------------------------------------ int peel against the Fraction peel

def _seeded_weight(rs, rng, top=2):
    """A weight of rs: dominant integral on the simple coordinates, any int
    on the torus coordinates."""
    return tuple(rat(rng.randint(0, top)) if i in rs.simple_positions
                 else rat(rng.randint(-top, top)) for i in range(rs.rank))


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "A3", "A1xT1"])
def test_tensor_matches_the_fraction_peel(label):
    rs = systemFromLabel(label)
    rng = random.Random("tensor/" + label)
    for _ in range(3):
        lam, mu = _seeded_weight(rs, rng), _seeded_weight(rs, rng)
        product = irreducibleCharacter(rs, lam).convolve(
            irreducibleCharacter(rs, mu))
        want = list(fractionDecompose(product).items())
        assert list(tensorDecompose(rs, lam, mu).items()) == want
        assert list(decomposeCharacter(product).entries.items()) == want


@pytest.mark.parametrize("label", ["A2:T", "A2:u2", "A3:keep=0,1", "A3:T",
                                   "A3:keep=0,2"])
def test_restriction_matches_the_fraction_peel(label):
    pair = pairFromLabel(label)
    rng = random.Random("restrict/" + label)
    for _ in range(3):
        lam = _seeded_weight(pair.g, rng)
        restricted = irreducibleCharacter(pair.g, lam).mapWeights(
            pair.weightToH, system=pair.h)
        assert list(restrictCharacter(pair, lam).items()) \
            == list(fractionDecompose(restricted).items())


@pytest.mark.parametrize("label", ["A2", "B2", "A1xT1", "T2"])
def test_virtual_character_matches_the_fraction_peel(label):
    rs = systemFromLabel(label)
    rng = random.Random("virtual/" + label)
    for _ in range(4):
        chi = FormalCharacter(rs, {})
        for scale in (-2, 1, rng.choice([-1, 3])):
            piece = irreducibleCharacter(rs, _seeded_weight(rs, rng))
            chi = chi + piece.scale(scale)
        dec = decomposeCharacter(chi).entries
        assert list(dec.items()) == list(fractionDecompose(chi).items())
        assert not dec or min(dec.values()) < 0


def test_decompositions_build_no_summand_character(monkeypatch, capsys):
    # the straightening reads the weights of one irreducible at most: a
    # cold tensor builds its smaller factor, restrict V_lam, and decompose
    # none
    built = []

    def counted(rs, lam, _kernel=characters._irreducible_weights):
        built.append((rs.label, tuple(lam)))
        return _kernel(rs, lam)

    monkeypatch.setattr(characters, "_irreducible_weights", counted)
    assert main(["tensor", "--type", "B2", "--lhs", "1,1",
                 "--rhs", "2,1"]) == 0
    assert built == [("B2", (1, 1))]
    assert cache.stats()["entries"] == 1
    built.clear()
    assert main(["restrict", "--pair", "A2:u2", "--weight", "3,2"]) == 0
    assert built == [("A2", (3, 2))]
    capsys.readouterr()
    chi = irreducibleCharacter(A2, (2, 1)) \
        - irreducibleCharacter(A2, (0, 0)).scale(2)
    built.clear()
    assert decomposeCharacter(chi).entries == {(2, 1): 1, (0, 0): -2}
    assert built == []


def test_rational_torus_weight_is_rejected_like_the_fraction_peel():
    # (3,0) peels first; (1/2,1) is not a lattice weight
    chi = FormalCharacter(systemFromLabel("T2"),
                          {(3, 0): 1, (rat(1, 2), 1): 1})
    with pytest.raises(NotIntegral) as want:
        fractionDecompose(chi)
    with pytest.raises(NotIntegral) as got:
        decomposeCharacter(chi)
    assert str(got.value) == str(want.value) \
        == "weight (1/2,1) is not integral"


# --------------------------------------------------------------------- cache

def test_cache_round_trip_and_determinism(tmp_path, monkeypatch):
    cachedir = tmp_path / "c1"
    monkeypatch.setenv(cache.ENV_VAR, str(cachedir))
    chi = irreducibleCharacter(A2, (1, 1))
    assert cache.stats()["entries"] == 1
    blob1 = b"".join(sorted(p.read_bytes() for p in cachedir.rglob("*.json")))
    assert irreducibleCharacter(A2, (1, 1)) == chi  # served from disk
    removed = cache.clear()["removed"]
    assert removed == 1
    assert cache.stats()["entries"] == 0
    assert irreducibleCharacter(A2, (1, 1)) == chi
    blob2 = b"".join(sorted(p.read_bytes() for p in cachedir.rglob("*.json")))
    assert blob1 == blob2


def test_cache_distinguishes_gram_variants(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "c2"))
    # A1xT1 standalone and as the subgroup of A1:T share a label but not a gram
    standalone = systemFromLabel("A1xT1")
    inherited = pairFromLabel("A2:u2").h
    assert cache.system_key(standalone) != cache.system_key(inherited)


def _corrupt_entry(tmp_path, monkeypatch, rs, lam, edit):
    """Cache V_lam, rewrite its file with edit(text), and return the
    entry's path and the correct character."""
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "bad"))
    chi = irreducibleCharacter(rs, lam)
    (path,) = (tmp_path / "bad").rglob("*.json")
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    return path, chi


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _edit_entries(fn):
    """Apply fn to the entries of the body line; the header, with the
    digest of the old body, stays."""
    def edit(text):
        head, body = text.splitlines()
        entries = json.loads(body)
        fn(entries)
        return head + "\n" + _canonical(entries)
    return edit


def _inflate(entries):
    for k in entries:
        entries[k] += 1


def _foreign_lambda(entries):
    # the entries of V(1,0), filed under (1,1)
    entries.clear()
    entries.update({"-1,1": 1, "0,-1": 1, "1,0": 1})


def _non_integer(entries):
    entries["1,1"] = 1.0


def _fractional_weight(entries):
    # the multiplicities still sum to the Weyl dimension
    entries["1/2,0"] = entries.pop("0,0")


def _moved_highest_weight(entries):
    # the same total; a peel that needs V(1,1) would never remove (1,1)
    entries["3,3"] = entries.pop("1,1")


def _moved_lower_weight(entries):
    # A1 (2): the same total, and 2 still has multiplicity 1
    entries["4"] = entries.pop("0")


def _swapped_multiplicities(entries):
    # A2 (1,1): the same total, and (1,1) still has multiplicity 1
    entries["0,0"], entries["-1,2"] = 1, 2


def _respelled(key, spelling):
    """Rename the key to another spelling that int() reads: the report
    prints the keys as they are."""
    def edit(entries):
        entries[spelling] = entries.pop(key)
    return _edit_entries(edit)


def _single_document(text):
    """The file in the format before the header: one JSON document."""
    head, body = map(json.loads, text.splitlines())
    return _canonical({"entries": body, "lambda": head["lambda"],
                       "system": head["system"]})


def _flipped_body_byte(text):
    head, body = text.splitlines(keepends=True)
    i = len(body) // 2
    return head + body[:i] + chr(ord(body[i]) ^ 1) + body[i + 1:]


def _copied_from(rs, lam):
    """The file of V_lam in place of the entry's own."""
    return lambda text: oldCacheDocument(rs, lam, oracleWeights(rs, lam))


CORRUPTIONS = [
    (A2, (1, 1), lambda text: text[:len(text) // 2]),
    (A2, (1, 1), _edit_entries(_foreign_lambda)),
    (A2, (1, 1), _edit_entries(_inflate)),
    (A2, (1, 1), _edit_entries(_non_integer)),
    (A2, (1, 1), _edit_entries(_fractional_weight)),
    (A2, (1, 1), _edit_entries(_moved_highest_weight)),
    (A2, (1, 1), _respelled("1,1", "+1,1")),
    (A2, (1, 1), _respelled("1,1", "01,1")),
    (A2, (1, 1), _respelled("1,1", " 1,1")),
    (A2, (1, 1), _respelled("0,0", "1_0,0")),
    (A2, (1, 1), _respelled("0,0", "-0,0")),
    (A1, (2,), _edit_entries(_moved_lower_weight)),
    (A2, (1, 1), _edit_entries(_swapped_multiplicities)),
    (A2, (1, 1), _single_document),
    (A2, (1, 1), _flipped_body_byte),
    (A2, (1, 1), _copied_from(A2, (1, 0))),
    (systemFromLabel("A1xT1"), (1, 0),
     _copied_from(pairFromLabel("A2:u2").h, (1, 0))),
]
CORRUPTION_IDS = [
    "truncated", "foreign-lambda", "inflated-multiplicity",
    "non-integer-entry", "fractional-weight", "moved-highest-weight",
    "plus-sign", "leading-zero", "leading-space", "underscore",
    "negative-zero", "moved-lower-weight", "swapped-multiplicities",
    "single-document", "flipped-body-byte", "copied-from-weight",
    "copied-from-system"]


@pytest.mark.parametrize("rs,lam,edit", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_wrong_cache_entry_is_a_miss(tmp_path, monkeypatch, rs, lam, edit):
    path, chi = _corrupt_entry(tmp_path, monkeypatch, rs, lam, edit)
    good = irreducibleCharacter(rs, lam)
    assert good == chi
    assert good.entries == oracleWeights(rs, lam)
    # the recomputation overwrote the bad entry
    head, body = map(json.loads, path.read_text().splitlines())
    assert head["lambda"] == weightString(lam)
    assert sum(body.values()) == weylDimension(rs, lam)
    assert all(type(m) is int for m in body.values())
    assert path.read_text() == oldCacheDocument(rs, lam, good.entries)


@pytest.mark.parametrize("rs,lam,edit", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_wrong_cache_entry_is_a_miss_for_char_json(tmp_path, monkeypatch,
                                                   capsys, rs, lam, edit):
    path, _ = _corrupt_entry(tmp_path, monkeypatch, rs, lam, edit)
    weights = oracleWeights(rs, lam)
    assert main(["char", "--type", rs.label, "--weight", weightString(lam),
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == oldCharReport(rs, lam, weights)[0]
    assert path.read_text() == oldCacheDocument(rs, lam, weights)


def test_rank_zero_entry_is_served(monkeypatch):
    t0 = systemFromLabel("T0")
    assert irreducibleCharacter(t0, ()).entries == {(): 1}
    (path,) = pathlib.Path(cache.cache_dir()).rglob("*.json")
    text = path.read_text()
    assert text == oldCacheDocument(t0, (), {(): 1})

    def refused(*args):
        raise AssertionError("the entry was not served")

    monkeypatch.setattr(characters, "_freudenthal", refused)
    monkeypatch.setattr(cache, "store", refused)
    assert irreducibleCharacter(t0, ()).entries == {(): 1}
    assert path.read_text() == text


# --------------------------------------------------------------- cone series

def geometric_tail(window):
    # truncation of sum_{k>=0} e^{-k} on the circle, polarized along -1
    return ConeSeries(T1, {(-k,): 1 for k in range(int(window) + 1)},
                      (-1,), 0, window)


def test_cone_series_multiply_back():
    s = geometric_tail(5)
    t = s.mulOneMinusExp((1,))
    assert dict(t.entries) == {(rat(0),): 1}
    assert t.window == 5 and t.offset == 0


def test_cone_series_shift():
    neg = ConeSeries(T1, {(k,): -1 for k in range(1, 6)}, (1,), -1, 5)
    sh = neg.shift((1,))
    assert dict(sh.entries) == {(rat(k),): -1 for k in range(2, 7)}
    assert sh.window == 6 and sh.offset == -2
    # shifting by zero is the identity
    assert neg.shift(T1.zeroWeight()) == neg


def test_cone_series_window_truncates_construction():
    s = ConeSeries(T1, {(k,): 1 for k in range(10)}, (1,), 0, 4)
    assert max(w[0] for w in s.entries) == 4
    with pytest.raises(WindowTooSmall):
        s.coefficient((5,))
    assert s.coefficient((3,)) == 1 and s.coefficient((2,)) == 1


def test_cone_series_support_bound_enforced():
    with pytest.raises(DiracforgeError):
        ConeSeries(T1, {(-3,): 1}, (1,), 1, 5)


def test_cone_series_sum_intersects_windows():
    a = ConeSeries(T1, {(0,): 1}, (1,), 0, 10)
    b = ConeSeries(T1, {(4,): 1}, (1,), 0, 3)
    c = a + b
    assert c.window == 3 and all(w[0] <= 3 for w in c.entries)
    with pytest.raises(SystemMismatch):
        a + ConeSeries(T1, {}, (-1,), 0, 3)


def test_cone_series_interval_comparison():
    z = ConeSeries(T1, {(k,): 1 for k in range(-3, 4)}, (1,), None, 3, lower=-3)
    w = z + ConeSeries(T1, {}, (1,), 0, 10)
    ok, _ = z.equalOnInterval(w, -3, 3)
    assert ok
    bad = ConeSeries(T1, {(k,): 1 for k in range(-3, 3)}, (1,), None, 3, lower=-3)
    ok, witness = z.equalOnInterval(bad, -3, 3)
    assert not ok and witness == (rat(3),)
    with pytest.raises(WindowTooSmall):
        z.equalOnInterval(w, -4, 3)
    with pytest.raises(WindowTooSmall):
        z.equalOnInterval(w, -3, 4)


def test_polarization_certificates():
    s = geometric_tail(5)
    assert polarizationWitness(s, (-1,)) == (True, None)
    # the origin sits on the wall
    assert polarizationWitness(s, (-1,), strict=True) == (False, (rat(0),))
    # positive multiples also fine
    assert polarizationWitness(s, (rat(-1, 2),)) == (True, None)
    with pytest.raises(WindowTooSmall):
        polarizationWitness(s, (1,))
    short = ConeSeries(T1, {}, (1,), 0, -1)
    with pytest.raises(WindowTooSmall):
        polarizationWitness(short, (1,))
    neg = ConeSeries(T1, {(k,): -1 for k in range(1, 6)}, (1,), -1, 5)
    assert polarizationWitness(neg, (1,), strict=True) == (True, None)
    ok, witness = polarizationWitness(neg.shift((-2,)), (1,))
    assert not ok and witness == (rat(-1),)


def test_polarization_of_complete_series():
    chi = FormalCharacter(T1, {(2,): 1, (5,): 3})
    cs = characterToSeries(chi, (1,))
    assert cs.isComplete()
    for direction in [(1,), (7,), (rat(1, 3),)]:
        assert polarizationWitness(cs, direction, strict=True) == (True, None)
    ok, witness = polarizationWitness(cs, (-1,))
    assert not ok and witness in {(rat(2),), (rat(5),)}
    bilateral = ConeSeries(T1, {(k,): 1 for k in range(-2, 3)}, (1,), None, 2,
                           lower=-2)
    with pytest.raises(WindowTooSmall):
        polarizationWitness(bilateral, (1,))


def test_cone_series_file_round_trip():
    series = [geometric_tail(4),
              ConeSeries(T1, {(k,): -1 for k in range(1, 4)}, (1,), -1, 6),
              ConeSeries(T1, {(k,): 1 for k in range(-2, 3)}, (1,), None, 2,
                         lower=-2),
              characterToSeries(FormalCharacter(T1, {(3,): 2}), (1,))]
    for s in series:
        assert ConeSeries.from_lines(s.to_lines()) == s
    with pytest.raises(DiracforgeError):
        ConeSeries.from_lines(["T1 flat-series polarizer=1 offset=0 window=2"])


# ------------------------------------------- int coordinates where integral

def test_integral_coordinates_are_ints_in_every_output():
    u2 = pairFromLabel("A2:u2")
    t2 = systemFromLabel("T2")
    series = ConeSeries.from_lines(
        ["T1 cone-series polarizer=1 offset=1 window=none",
         "-1/2 1", "4/2 3", "3 1"])
    fractional = polarizedExpand(t2, [(rat(-1, 2), 0), (0, -1)], (1, 1), 3)
    lattice = polarizedExpand(T1, [(1,)], (1,), 4)
    half = lattice.shift((rat(1, 2),))
    base = FormalCharacter(t2, {(0, 0): 2})
    outputs = {
        # a Fraction highest weight is checked, then run on ints
        "char": irreducibleCharacter(systemFromLabel("B2"),
                                     (rat(1), rat(1))).entries,
        "tensor": tensorDecompose(A2, (1, 0), (1, 1)),
        "restrict": restrictCharacter(u2, (2, 1)),
        "induct": diracInduct(u2, (0, 3)).entries,
        "polarize": polarizedExpand(t2, [(1, 0), (-1, -2)], (1, 1),
                                    6).entries,
        "fractional fiber": fractional.entries,
        "series file": series.entries,
        # sums that land on the lattice become ints again
        "shift": series.shift((rat(1, 2),)).entries,
        "mulOneMinusExp": series.mulOneMinusExp((rat(1, 2),)).entries,
        "sumSeries": sumSeries([lattice, half.shift((rat(1, 2),))]).entries,
        "bundleIndex": bundleIndex(t2, base, [(rat(-1, 2), 0), (0, -1)],
                                   (1, 1), (1, 0), 3).entries,
    }
    for name, weights in outputs.items():
        assert weights, name
        assert all(intWhenIntegral(w) for w in weights), name
    assert (rat(-1, 2),) in series.entries and (2,) in series.entries
    assert any(not w[0].denominator == 1 for w in fractional.entries)
    assert (0,) in outputs["shift"] and (rat(5, 2),) in outputs["shift"]
    assert (-1,) in outputs["mulOneMinusExp"]
    assert outputs["sumSeries"] == {(1,): -1, (2,): -2, (3,): -2, (4,): -2}
    bundle = outputs["bundleIndex"]
    assert any(c.denominator > 1 for w in bundle for c in w)
    assert any(all(c.denominator == 1 for c in w) for w in bundle)
