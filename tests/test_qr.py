from functools import reduce
from math import gcd, lcm
from operator import add

import pytest

from diracforge.characters import (ConeSeries, FormalCharacter,
                                   characterToSeries, sumSeries)
from diracforge.errors import (ConventionMismatch, DiracforgeError,
                               NonGenericDirection, NotDelzant, NotIntegral,
                               NotPrequantized, SingularShift,
                               UnsupportedType)
from diracforge.exactmat import ExactMatrix
from diracforge.liecore import systemFromLabel
from diracforge.polarized import polarizedExpand
from diracforge.qr import (CoadjointModel, ToricModel, coadjointQuantization,
                           cp1, cp2, fixedPointCharacter, hirzebruch,
                           kirwanDecomposeCircle, pointModel, productQRCheck,
                           qrCheckCircle, toricQuantization)
from diracforge.rationals import rat


def ipts(chi):
    return sorted(tuple(int(c) for c in w) for w in chi.entries)


# ------------------------------------------------------------ model shape

def test_cp1_vertices_and_edges():
    m = cp1(4)
    assert [tuple(int(c) for c in v.point) for v in m.vertices] == [(0,), (4,)]
    assert [v.edges for v in m.vertices] == [[(1,)], [(-1,)]]


def test_cp2_lattice_count():
    assert len(cp2(3).latticePoints()) == 10


def test_unbounded_rejected():
    with pytest.raises(NotDelzant):
        ToricModel([((1, 0), 0), ((0, 1), 0)])


def test_vertexless_slab_rejected():
    with pytest.raises(NotDelzant):
        ToricModel([((1, 1), 0), ((-1, -1), 3)])


def test_lower_dimensional_rejected():
    with pytest.raises(NotDelzant):
        ToricModel([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 2)])


def test_weighted_projective_rejected():
    # P(1,1,2): the top vertex has edge lattice index two, so the inverse
    # of its normals (1,0), (-1,-2) has the entry -1/2
    with pytest.raises(NotDelzant, match=r"^normals at vertex \(0,1\) are "
                       r"not a lattice basis: their inverse has entry -1/2 "
                       r"at \(2, 1\)$"):
        ToricModel([((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])


def unimodular_edges(model, vertex):
    """The edges at a vertex by the determinant route: the primitive
    columns of the inverse of the active normals, which must span a
    lattice basis (determinant +-1)."""
    n = model.dimension
    rows = [list(model.halfSpaces[j][0]) for j in vertex.active]
    inv = ExactMatrix.from_rows(rows).inverse()
    edges = []
    for k in range(n):
        col = [inv.get(i, k)[0] for i in range(n)]
        scale = lcm(*(c.denominator for c in col))
        ints = [int(c * scale) for c in col]
        g = gcd(*ints)
        edges.append(tuple(c // g for c in ints))
    assert det(edges) in (1, -1)
    return edges


def det(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]))


@pytest.mark.parametrize("model", [cp1(3), cp2(2), hirzebruch(4, 2),
                                   pointModel()],
                         ids=["cp1", "cp2", "hirzebruch", "point"])
def test_edges_match_the_determinant_route(model):
    for v in model.vertices:
        assert v.edges == unimodular_edges(model, v)


def test_non_simple_vertex_rejected():
    with pytest.raises(NotDelzant):
        ToricModel([((1,), 0), ((-1,), 2), ((1,), 0)])


def test_imprimitive_normal_rejected():
    with pytest.raises(DiracforgeError):
        ToricModel([((2,), 0), ((-1,), 2)])


def test_degenerate_hirzebruch_rejected():
    with pytest.raises(NotDelzant):
        hirzebruch(2, 2, twist=1)


def test_json_roundtrip():
    m = hirzebruch(4, 2)
    again = ToricModel.fromDict(m.toDict())
    assert again.halfSpaces == m.halfSpaces
    assert ipts(toricQuantization(again)) == ipts(toricQuantization(m))


def test_json_field_errors_name_the_entry():
    with pytest.raises(DiracforgeError, match="halfspace 1"):
        ToricModel.fromDict({"halfspaces": [
            {"normal": [1], "offset": "0"}, {"normal": [-1]}]})
    with pytest.raises(DiracforgeError, match="halfspaces"):
        ToricModel.fromDict({"polytope": []})


# ---------------------------------------------------------- quantization

def test_cp1_quantization_frozen():
    assert ipts(toricQuantization(cp1(2))) == [(0,), (1,), (2,)]


def test_cp2_quantization_frozen():
    assert ipts(toricQuantization(cp2(1))) == [(0, 0), (0, 1), (1, 0)]


def test_point_quantization():
    assert dict(toricQuantization(pointModel()).entries) == {(): 1}


def test_fractional_offset_not_prequantized():
    m = ToricModel([((1,), rat(1, 2)), ((-1,), 2)])
    with pytest.raises(NotPrequantized):
        toricQuantization(m)


# ------------------------------------------------------------ vertex sum

@pytest.mark.parametrize("model,xi,window", [
    (cp1(2), (1,), 7), (cp1(2), (-1,), 7), (cp1(5), (1,), 9),
    (cp2(1), (1, 2), 8), (cp2(2), (-2, 1), 8), (hirzebruch(4, 2), (1, 3), 12),
])
def test_vertex_sum_equals_lattice_enumeration(model, xi, window):
    series = fixedPointCharacter(model, xi, window)
    oracle = characterToSeries(toricQuantization(model), xi)
    lo = min(oracle.pairing(w) for w in oracle.entries) - 2
    same, witness = series.equalOnInterval(oracle, lo, window)
    assert same, witness


@pytest.mark.parametrize("model,xi,window", [
    (cp2(2), (1, 2), 8), (cp2(3), (-2, 1), 9), (hirzebruch(4, 2), (1, 3), 12),
    (hirzebruch(5, 2), (-1, 2), 10),
], ids=["cp2", "cp2-other-side", "hirzebruch", "hirzebruch-other-side"])
def test_vertex_sum_in_one_step_equals_chained_sum(model, xi, window):
    sys = model.system
    parts = []
    for v in model.vertices:
        outward = [tuple(-c for c in u) for u in v.edges]
        local = window - sys.innerProduct(v.point, xi)
        parts.append(polarizedExpand(sys, outward, xi, local).shift(v.point))
    chain = reduce(add, parts)
    assert sumSeries(parts) == chain
    assert fixedPointCharacter(model, xi, window) == chain


def test_vertex_sum_point_model():
    s = fixedPointCharacter(pointModel(), (), 4)
    assert dict(s.entries) == {(): 1}


def test_perpendicular_edge_rejected():
    with pytest.raises(NonGenericDirection):
        fixedPointCharacter(hirzebruch(4, 2), (1, 0), 6)


# ------------------------------------------------------- decomposition

def test_cp1_interior_level_three_components():
    comps = kirwanDecomposeCircle(cp1(4), (1,), 2, 8)
    assert [tuple(int(c) for c in comp.alpha) for comp in comps] == \
        [(-2,), (0,), (2,)]
    assert [comp.containsZero for comp in comps] == [False, True, False]
    below, zero, above = comps
    assert {int(w[0]): m for w, m in below.localSeries.entries.items()} == \
        {-k: -1 for k in range(1, 7)}
    assert {int(w[0]): m for w, m in above.localSeries.entries.items()} == \
        {k: -1 for k in range(5, 11)}
    total = {}
    for comp in comps:
        for w, m in comp.localSeries.entries.items():
            total[w] = total.get(w, 0) + m
    assert {int(w[0]): m for w, m in total.items() if m} == \
        {k: 1 for k in range(5)}


@pytest.mark.parametrize("c,lower", [(2, -6), (rat(3, 2), rat(-13, 2))])
def test_zero_component_keeps_its_negative_lower_edge(c, lower):
    # cp1(4): the bilateral piece is sum_k e^{k} on c - 8 <= k <= c + 8
    zero = [comp for comp in kirwanDecomposeCircle(cp1(4), (1,), c, 8)
            if comp.containsZero][0].localSeries
    assert zero.lower == lower and zero.window == c + 8
    assert {int(w[0]): m for w, m in zero.entries.items()} == \
        {k: 1 for k in range(-6, 11 if c == 2 else 10)}
    # a term one step below the edge is dropped, the edge term kept
    again = ConeSeries(zero.system, {**zero.entries, (-7,): 1},
                       zero.polarizer, zero.offset, zero.window, zero.lower)
    assert again == zero


def test_cp1_level_outside_image_single_component():
    comps = kirwanDecomposeCircle(cp1(4), (1,), -1, 8)
    assert len(comps) == 1 and not comps[0].containsZero
    assert tuple(int(c) for c in comps[0].alpha) == (1,)
    assert {int(w[0]): m for w, m in comps[0].localSeries.entries.items()} \
        == {k: 1 for k in range(5)}


def test_point_decomposition_tracks_level():
    zero = kirwanDecomposeCircle(pointModel(), (), 0, 4)
    off = kirwanDecomposeCircle(pointModel(), (), 2, 4)
    assert zero[0].containsZero and not off[0].containsZero
    assert dict(zero[0].localSeries.entries) == {(): 1}


def test_vertex_level_is_singular():
    with pytest.raises(SingularShift):
        kirwanDecomposeCircle(cp1(4), (1,), 4, 8)
    with pytest.raises(SingularShift):
        kirwanDecomposeCircle(hirzebruch(4, 2), (1, 0), 2, 8)


def test_direction_must_be_primitive():
    with pytest.raises(DiracforgeError):
        kirwanDecomposeCircle(cp1(4), (2,), 1, 8)


def test_fractional_direction_is_rejected():
    with pytest.raises(NotIntegral, match="coordinate 2 is 5/2"):
        kirwanDecomposeCircle(cp2(4), (1, rat(5, 2)), 2, 8)
    with pytest.raises(NotIntegral, match="coordinate 1 is 3/2"):
        qrCheckCircle(cp1(4), (rat(3, 2),), 2)


def test_window_must_be_positive():
    with pytest.raises(DiracforgeError):
        kirwanDecomposeCircle(cp1(4), (1,), 2, 0)


def test_twisted_fixed_face_unsupported():
    with pytest.raises(UnsupportedType):
        kirwanDecomposeCircle(cp2(3), (1, 1), 1, 6)
    with pytest.raises(UnsupportedType):
        kirwanDecomposeCircle(cp2(3), (1, 0), 1, 6)


def test_product_face_components():
    # square: both vertical edges are product-type fixed faces
    square = ToricModel([((1, 0), 0), ((-1, 0), 2), ((0, 1), 0),
                         ((0, -1), 3)])
    comps = kirwanDecomposeCircle(square, (1, 0), 1, 6)
    assert [comp.containsZero for comp in comps] == [False, True, False]
    sys = square.system
    for comp in comps:
        if comp.containsZero:
            continue
        side = 1 if sum(comp.alpha) > 0 else -1
        for w in comp.localSeries.entries:
            assert side * (sys.innerProduct(w, (1, 0)) - 1) > 0


def test_nonzero_components_are_strictly_off_level():
    comps = kirwanDecomposeCircle(hirzebruch(5, 2), (1, 0), 2, 7)
    sys = systemFromLabel("T2")
    for comp in comps:
        if comp.containsZero:
            continue
        m = sys.innerProduct(comp.alpha, (1, 0))
        for w in comp.localSeries.entries:
            assert (sys.innerProduct(w, (1, 0)) - 2) * m > 0


# ------------------------------------------------------------- [Q,R]=0

def test_qr_cp1_frozen():
    report = qrCheckCircle(cp1(4), (1,), 2)
    assert report["mult0"] == 1 and report["reduced"] == 1
    assert report["match"] is True
    report = qrCheckCircle(cp1(4), (1,), -1)
    assert report["mult0"] == 0 and report["reduced"] == 0


def test_qr_needs_integral_level():
    with pytest.raises(NotIntegral):
        qrCheckCircle(cp1(4), (1,), rat(1, 2))


def test_qr_hirzebruch_slices():
    assert qrCheckCircle(hirzebruch(4, 2), (1, 0), 1)["mult0"] == 3
    assert qrCheckCircle(hirzebruch(4, 2), (1, 0), 3)["mult0"] == 2
    assert qrCheckCircle(hirzebruch(5, 2), (1, 0), 4)["mult0"] == 2


def test_qr_cp2_generic_circle():
    counts = {1: 1, 2: 2, 4: 2, 5: 1}
    for c, expected in counts.items():
        report = qrCheckCircle(cp2(3), (1, 2), c)
        assert report["mult0"] == expected == report["reduced"]


def test_qr_point_model():
    assert qrCheckCircle(pointModel(), (), 0)["mult0"] == 1
    assert qrCheckCircle(pointModel(), (), 3)["mult0"] == 0


# ------------------------------------------------------------ coadjoint

def test_coadjoint_su2_frozen():
    su2 = systemFromLabel("A1")
    out = coadjointQuantization(CoadjointModel(su2, (3,)))
    assert dict(out.entries) == {(rat(3),): 1}
    out = coadjointQuantization(CoadjointModel(su2, (1,)))
    assert dict(out.entries) == {(rat(1),): 1}


def test_coadjoint_su3_rho():
    su3 = systemFromLabel("A2")
    out = coadjointQuantization(CoadjointModel(su3, (1, 1)))
    assert dict(out.entries) == {(rat(1), rat(1)): 1}


def test_coadjoint_orbit_must_be_regular():
    su2 = systemFromLabel("A1")
    with pytest.raises(DiracforgeError):
        CoadjointModel(su2, (0,))
    with pytest.raises(NotIntegral):
        CoadjointModel(su2, (rat(1, 2),))


def test_coadjoint_guard_catches_a_broken_induction(monkeypatch):
    su2 = systemFromLabel("A1")
    model = CoadjointModel(su2, (2,))
    monkeypatch.setattr(
        "diracforge.qr.diracInduct",
        lambda pair, lam: FormalCharacter(
            pair.g, {}, basis=FormalCharacter.IRREDUCIBLE))
    with pytest.raises(ConventionMismatch):
        coadjointQuantization(model)


def test_product_qr_delta():
    su2 = systemFromLabel("A1")
    assert productQRCheck(su2, (3,), (3,))["multiplicity"] == 1
    assert productQRCheck(su2, (3,), (2,))["multiplicity"] == 0
    su3 = systemFromLabel("A2")
    report = productQRCheck(su3, (1, 1), (1, 1))
    assert report["multiplicity"] == 1 and report["match"]


def test_product_qr_rejects_singular_labels():
    su2 = systemFromLabel("A1")
    with pytest.raises(DiracforgeError):
        productQRCheck(su2, (0,), (1,))
