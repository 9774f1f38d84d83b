"""Differential tests: the sparse ExactMatrix against the dense kernels.

Random Q(i) matrices are built as flat row-major lists, fed to the
reference kernels in ``diracforge.matops`` (and to elementwise list
arithmetic), and compared entry by entry with the sparse results.  No
package module calls those kernels: they are the tests' oracle, and
``rref`` eliminates on the int numerators fraction-free.  After
every operation the storage invariant is checked: int numerators with no
stored zero and no empty row, over a positive denominator prime to them
all.
"""

import math
import random

import pytest

from diracforge import matops as ref
from diracforge.dirac import spectralCheckRelative
from diracforge.errors import DimensionMismatch
from diracforge.exactmat import ExactMatrix
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.qr import cp2
from diracforge.rationals import ONE, ZERO, rat

KINDS = ("real", "imag", "mixed")
SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (5, 2), (7, 7), (12, 12),
          (9, 12)]


def _entry(rng, small):
    # entries in {-1, 0, 1} make sums and products cancel often
    if small:
        return rat(rng.randint(-1, 1))
    return rat(rng.randint(-4, 4), rng.randint(1, 3))


def dense(rng, n, m, kind, fill, small=False):
    re = [ZERO] * (n * m)
    im = [ZERO] * (n * m)
    for p in range(n * m):
        if rng.random() < fill:
            if kind != "imag":
                re[p] = _entry(rng, small)
            if kind != "real":
                im[p] = _entry(rng, small)
    return re, im


def build(n, m, d):
    re, im = d
    if not n:  # from_rows cannot tell the width of zero rows
        return ExactMatrix.zeros(0, m)
    return ExactMatrix.from_rows([[(re[i * m + j], im[i * m + j])
                                   for j in range(m)] for i in range(n)])


def check(mat, n, m, d):
    """mat is n x m, equals the dense pair d, and keeps the invariant: int
    numerators, no stored zero, no empty row, and a positive int
    denominator with gcd(den, every numerator) == 1, so den == 1 when
    nothing is stored."""
    assert (mat.nrows, mat.ncols) == (n, m)
    nums = []
    for part in (mat.re, mat.im):
        for i, row in part.items():
            assert 0 <= i < n and row, "empty or out-of-range row %r" % i
            for j, v in row.items():
                assert 0 <= j < m and v, "stored zero at %r" % ((i, j),)
                assert type(v) is int, "non-int numerator at %r" % ((i, j),)
                nums.append(v)
    assert type(mat.den) is int and mat.den > 0
    assert math.gcd(mat.den, *nums) == 1, "unreduced: den %d" % mat.den
    re, im = d
    assert [mat.get(i, j) for i in range(n) for j in range(m)] \
        == list(zip(re, im))


def cases(seed, count=12):
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n, m = SHAPES[t % len(SHAPES)]
        out.append((rng, n, m, rng.choice(KINDS), rng.choice((1.0, 0.05)),
                    rng.random() < 0.5))
    return out


def ref_mul(a, b, n, m, k):
    (ar, ai), (br, bi) = a, b
    return ref.mul_cplx(ar, ai, br, bi, n, m, k, ZERO)


def ref_rref(n, m, d):
    re, im = d
    rr = [re[i * m:(i + 1) * m] for i in range(n)]
    ri = [im[i * m:(i + 1) * m] for i in range(n)]
    pivots = ref.rref_cplx(rr, ri, n, m, ZERO, ONE)
    return ([x for row in rr for x in row], [x for row in ri for x in row]), \
        pivots


@pytest.mark.parametrize("seed", range(6))
def test_add_sub_neg_scale(seed):
    for rng, n, m, kind, fill, small in cases(seed):
        da = dense(rng, n, m, kind, fill, small)
        db = dense(rng, n, m, rng.choice(KINDS), fill, small)
        a, b = build(n, m, da), build(n, m, db)
        check(a, n, m, da)
        check(a + b, n, m, ([x + y for x, y in zip(da[0], db[0])],
                            [x + y for x, y in zip(da[1], db[1])]))
        check(a - b, n, m, ([x - y for x, y in zip(da[0], db[0])],
                            [x - y for x, y in zip(da[1], db[1])]))
        check(-a, n, m, ([-x for x in da[0]], [-x for x in da[1]]))
        check(a + (-a), n, m, ([ZERO] * (n * m), [ZERO] * (n * m)))
        stacked = ExactMatrix.vstack([a, b, a], m)
        check(stacked, 3 * n, m, (da[0] + db[0] + da[0], da[1] + db[1] + da[1]))
        if n and m:
            stacked.put(0, 0, (rat(7), rat(7)))  # no row is shared
            check(a, n, m, da)
        check(ExactMatrix.vstack([], m), 0, m, ([], []))
        with pytest.raises(DimensionMismatch):
            ExactMatrix.vstack([a, ExactMatrix.zeros(1, m + 1)], m)
        assert (a - a).is_zero() and a - a == ExactMatrix.zeros(n, m)
        for zr, zi in ((rat(0), rat(0)), (rat(-3, 2), rat(0)),
                       (rat(0), rat(2)), (rat(1), rat(1))):
            want = ([zr * x - zi * y for x, y in zip(*da)],
                    [zr * y + zi * x for x, y in zip(*da)])
            check(a.scale((zr, zi)), n, m, want)


@pytest.mark.parametrize("seed", range(4))
def test_from_entries_equals_from_rows(seed):
    # the non-zero entries alone, as real scalars where the matrix is
    # real and (re, im) pairs where it is Gaussian
    for rng, n, m, kind, fill, small in cases(seed):
        re, im = d = dense(rng, n, m, kind, fill, small)
        entries = {(p // m, p % m): (re[p], im[p]) if kind != "real"
                   else re[p] for p in range(n * m) if re[p] or im[p]}
        mat = ExactMatrix.from_entries(n, m, entries)
        check(mat, n, m, d)
        assert mat == build(n, m, d)
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_entries(2, 3, {(0, 3): 1})


@pytest.mark.parametrize("seed", range(4))
def test_nonzero_lists_every_nonzero_entry(seed):
    # the entries get reads, without the zeros; from_entries rebuilds the
    # matrix from them
    for rng, n, m, kind, fill, small in cases(seed):
        mat = build(n, m, dense(rng, n, m, kind, fill, small))
        want = {(i, j): mat.get(i, j) for i in range(n) for j in range(m)
                if mat.get(i, j) != (ZERO, ZERO)}
        assert mat.nonzero() == want
        assert ExactMatrix.from_entries(n, m, mat.nonzero()) == mat


@pytest.mark.parametrize("seed", range(4))
def test_adjointness_matches_its_definition(seed):
    # for a Hermitian S: skew-adjoint when A^H S + S A = 0, self-adjoint
    # when A^H S = S A; the parts A -+ S^-1 A^H S hit both answers
    rng = random.Random(seed)
    for n in (1, 3, 6):
        b = build(n, n, dense(rng, n, n, "mixed", 0.5))
        s = b.ctranspose() * b + ExactMatrix.identity(n)
        a = build(n, n, dense(rng, n, n, rng.choice(KINDS), 0.5, True))
        back = s.inverse() * a.ctranspose() * s
        for m in (a, a - back, a + back):
            assert m.is_skewadjoint_wrt(s) \
                == (m.ctranspose() * s + s * m).is_zero()
            assert m.is_selfadjoint_wrt(s) == (m.ctranspose() * s == s * m)
        assert (a - back).is_skewadjoint_wrt(s)
        assert (a + back).is_selfadjoint_wrt(s)


def test_add_cancels_to_an_empty_row():
    a = ExactMatrix.from_rows([[1, (2, 1)], [3, 0]])
    b = ExactMatrix.from_rows([[-1, (-2, -1)], [0, 5]])
    s = a + b
    check(s, 2, 2, ([ZERO, ZERO, rat(3), rat(5)], [ZERO] * 4))
    assert 0 not in s.re and not s.im
    # (1 + i)(1 + i) = 2i: the real part cancels
    z = ExactMatrix.from_rows([[(1, 1)]])
    check(z * z, 1, 1, ([ZERO], [rat(2)]))
    assert not (z * z).re


@pytest.mark.parametrize("seed", range(6))
def test_product_matches_dense_kernels(seed):
    for rng, n, m, kind, fill, small in cases(seed):
        k = rng.randint(0, 12)
        da = dense(rng, n, m, kind, fill, small)
        db = dense(rng, m, k, rng.choice(KINDS), fill, small)
        a, b = build(n, m, da), build(m, k, db)
        check(a * b, n, k, ref_mul(da, db, n, m, k))
        if not any(da[1]) and not any(db[1]):
            check(a * b, n, k, (ref.mul_real(da[0], db[0], n, m, k, ZERO),
                                [ZERO] * (n * k)))


def test_product_cancels_to_zero():
    a = ExactMatrix.from_rows([[1, 1], [(0, 1), 1]])
    b = ExactMatrix.from_rows([[1], [-1]])
    check(a * b, 2, 1, ([ZERO, rat(-1)], [ZERO, rat(1)]))
    c = ExactMatrix.from_rows([[1, -1], [1, -1]])
    d = ExactMatrix.from_rows([[1, 1], [1, 1]])
    check(c * d, 2, 2, ([ZERO] * 4, [ZERO] * 4))
    assert (c * d).is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_kron_transpose_ctranspose(seed):
    for rng, n, m, kind, fill, small in cases(seed, count=9):
        n2, m2 = rng.randint(0, 3), rng.randint(0, 3)
        da = dense(rng, n, m, kind, fill, small)
        db = dense(rng, n2, m2, rng.choice(KINDS), 1.0, small)
        a, b = build(n, m, da), build(n2, m2, db)
        re = [ZERO] * (n * n2 * m * m2)
        im = list(re)
        for i1 in range(n):
            for j1 in range(m):
                for i2 in range(n2):
                    for j2 in range(m2):
                        x = (da[0][i1 * m + j1], da[1][i1 * m + j1])
                        y = (db[0][i2 * m2 + j2], db[1][i2 * m2 + j2])
                        p = (i1 * n2 + i2) * (m * m2) + j1 * m2 + j2
                        re[p] = x[0] * y[0] - x[1] * y[1]
                        im[p] = x[0] * y[1] + x[1] * y[0]
        check(a.kron(b), n * n2, m * m2, (re, im))
        tr = ([da[0][i * m + j] for j in range(m) for i in range(n)],
              [da[1][i * m + j] for j in range(m) for i in range(n)])
        check(a.transpose(), m, n, tr)
        check(a.ctranspose(), m, n, (tr[0], [-x for x in tr[1]]))
        # the dense pair is row-major, so every reshape keeps it as it is
        check(a.reshape(m, n), m, n, da)
        check(a.reshape(1, n * m), 1, n * m, da)
        check(a.reshape(n * m, 1), n * m, 1, da)
        with pytest.raises(DimensionMismatch):
            a.reshape(n * m + 1, 1)


def test_kron_cancels_in_the_complex_case():
    z = ExactMatrix.from_rows([[(1, 1)]])
    check(z.kron(z), 1, 1, ([ZERO], [rat(2)]))


@pytest.mark.parametrize("seed", range(6))
def test_rref_nullspace_solve(seed):
    for rng, n, m, kind, fill, small in cases(seed):
        da = dense(rng, n, m, kind, fill, small=True)
        a = build(n, m, da)
        red, pivots = a.rref()
        want, want_pivots = ref_rref(n, m, da)
        assert pivots == want_pivots
        check(red, n, m, want)
        null = a.nullspace()
        check(null, m, m - len(pivots), _ref_nullspace(m, want, pivots))
        check(a * null, n, null.ncols,
              ([ZERO] * (n * null.ncols),) * 2)
        if n == m:
            check_inverse(a, n, da)
        else:
            with pytest.raises(DimensionMismatch):
                a.inverse()


def check_inverse(a, n, da):
    """a.inverse() against the dense elimination of [da | I]: None when
    the left block keeps fewer than n pivots, else the right block."""
    x = a.inverse()
    aug = ([], [])
    for i in range(n):
        unit = [ONE if j == i else ZERO for j in range(n)]
        aug[0].extend(da[0][i * n:(i + 1) * n] + unit)
        aug[1].extend(da[1][i * n:(i + 1) * n] + [ZERO] * n)
    red, pivots = ref_rref(n, 2 * n, aug)
    if pivots[:n] != list(range(n)):
        assert x is None
        return
    ident = ExactMatrix.identity(n)
    assert x is not None and a * x == ident and x * a == ident
    check(x, n, n, tuple([part[i * 2 * n + n + j] for i in range(n)
                          for j in range(n)] for part in red))


def _ref_nullspace(m, red, pivots):
    free = [j for j in range(m) if j not in pivots]
    d = len(free)
    re = [ZERO] * (m * d)
    im = [ZERO] * (m * d)
    for c, j in enumerate(free):
        re[j * d + c] = ONE
        for r, pj in enumerate(pivots):
            re[pj * d + c] = -red[0][r * m + j]
            im[pj * d + c] = -red[1][r * m + j]
    return re, im


def test_solve_inverts_a_gram_matrix():
    g = ExactMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    inv = g.inverse()
    assert g * inv == ExactMatrix.identity(3)
    check(inv, 3, 3, ([rat(3, 4), rat(1, 2), rat(1, 4),
                       rat(1, 2), rat(1), rat(1, 2),
                       rat(1, 4), rat(1, 2), rat(3, 4)], [ZERO] * 9))
    assert ExactMatrix.from_rows([[1, 1], [1, 1]]).inverse() is None
    assert ExactMatrix.zeros(2).inverse() is None
    check(ExactMatrix.zeros(0).inverse(), 0, 0, ([], []))
    with pytest.raises(DimensionMismatch):
        ExactMatrix.zeros(2, 3).inverse()


@pytest.mark.parametrize("rows", [
    [[(0, 1), 0], [0, (0, 1)]],
    [[1, 0], [0, (0, 1)]],
    [[1, 1], [0, (0, 1)]],
    [[(0, rat(1, 2)), 1], [0, (0, 3)]],
], ids=["i-identity", "imaginary-row", "mixed-imaginary-row", "halves"])
def test_inverse_of_a_gaussian_matrix(rows):
    # the inverse has a purely imaginary row, so one part of it has no
    # entry there; the result must still be the reduced form
    a = ExactMatrix.from_rows(rows)
    check_inverse(a, 2, pairs(a))


@pytest.mark.parametrize("seed", range(4))
def test_scalar_of_identity(seed):
    rng = random.Random(200 + seed)
    for n in (1, 2, 5, 9):
        for z in ((rat(0), rat(0)), (rat(rng.randint(1, 5), 3), rat(0)),
                  (rat(0), rat(-2)), (rat(1), rat(rng.randint(1, 4)))):
            ident = ExactMatrix.identity(n).scale(z)
            check(ident, n, n, ([z[0] if i == j else ZERO
                                 for i in range(n) for j in range(n)],
                                [z[1] if i == j else ZERO
                                 for i in range(n) for j in range(n)]))
            assert ident.scalar_of_identity() == z
            i, j = rng.randrange(n), rng.randrange(n)
            bumped = ident.scale(1)
            bumped.put(i, j, (rat(7), rat(0)))
            assert ident.scalar_of_identity() == z  # no row is shared
            check(bumped, n, n, _with(ident, n, i, j, (rat(7), ZERO)))
            assert bumped.scalar_of_identity() is None \
                or (n == 1 and bumped.scalar_of_identity() == (rat(7), ZERO))
            bumped.put(i, j, ident.get(i, j))
            assert bumped == ident and bumped.scalar_of_identity() == z
    assert ExactMatrix.zeros(0).scalar_of_identity() is None
    assert ExactMatrix.zeros(2, 3).scalar_of_identity() is None
    assert ExactMatrix.diag([1, 2]).scalar_of_identity() is None
    assert ExactMatrix.diag([(0, 1), 1]).scalar_of_identity() is None


def _with(mat, n, i, j, z):
    re = [mat.get(r, c)[0] for r in range(n) for c in range(n)]
    im = [mat.get(r, c)[1] for r in range(n) for c in range(n)]
    re[i * n + j], im[i * n + j] = z
    return re, im


def dense_over(rng, n, m, q):
    """A full n x m pair of rationals p/q whose (0, 0) entry is 1/q, so the
    matrix it builds has denominator exactly q."""
    re = [rat(rng.randint(-6, 6), q) for _ in range(n * m)]
    re[0] = rat(1, q)
    return re, [rat(rng.randint(-6, 6), q) for _ in range(n * m)]


def pairs(mat):
    """The entries of mat as a dense (re, im) pair, row-major."""
    n, m = mat.nrows, mat.ncols
    return ([mat.get(i, j)[0] for i in range(n) for j in range(m)],
            [mat.get(i, j)[1] for i in range(n) for j in range(m)])


def test_different_routes_give_one_form():
    a = ExactMatrix.from_rows([[1, (2, -1)], [rat(1, 3), 0],
                               [(0, rat(5, 6)), -4]])
    half = rat(1, 2)
    for route in (a.scale(2).scale(half), a.scale(half) + a.scale(half),
                  a.scale(rat(1, 3)).scale(3), a.scale((0, 1)).scale((0, -1))):
        check(route, 3, 2, pairs(a))
        assert route == a and route.den == a.den == 6
    one = ExactMatrix.from_rows([[half]]).kron(ExactMatrix.from_rows([[2]]))
    check(one, 1, 1, ([ONE], [ZERO]))
    assert one == ExactMatrix.identity(1)
    third = ExactMatrix.identity(2, rat(1, 3))
    assert third * third.scale(3) == third
    assert third * third.scale(9) == ExactMatrix.identity(2)


def test_put_rescales_then_reduces():
    a = ExactMatrix.from_rows([[1, 2], [rat(3, 4), 0]])
    assert a.den == 4
    a.put(1, 1, (rat(1, 6), rat(-1, 3)))  # lcm(4, 6): every numerator moves
    check(a, 2, 2, ([ONE, rat(2), rat(3, 4), rat(1, 6)],
                    [ZERO, ZERO, ZERO, rat(-1, 3)]))
    assert a.den == 12
    a.put(1, 1, 0)  # the last entry that needs the 3 goes
    check(a, 2, 2, ([ONE, rat(2), rat(3, 4), ZERO], [ZERO] * 4))
    assert a.den == 4
    a.put(1, 0, rat(1, 2))  # and now the last one that needs the 4
    check(a, 2, 2, ([ONE, rat(2), rat(1, 2), ZERO], [ZERO] * 4))
    assert a.den == 2
    a.put(1, 0, (0, 5))
    check(a, 2, 2, ([ONE, rat(2), ZERO, ZERO], [ZERO, ZERO, rat(5), ZERO]))
    assert a.den == 1


@pytest.mark.parametrize("q1,q2", [(3, 4), (2, 6), (5, 1), (1, 1)])
def test_vstack_and_solve_across_denominators(q1, q2):
    rng = random.Random(10 * q1 + q2)
    for n, m in ((4, 4), (3, 5), (5, 3)):
        da, dc = dense_over(rng, n, m, q1), dense_over(rng, 2, m, q2)
        a, c = build(n, m, da), build(2, m, dc)
        assert (a.den, c.den) == (q1, q2)
        stacked = ExactMatrix.vstack([a, c, a], m)
        check(stacked, 2 * n + 2, m,
              (da[0] + dc[0] + da[0], da[1] + dc[1] + da[1]))
        # a square system whose two row blocks have different denominators
        rest = build(m - 2, m, dense_over(rng, m - 2, m, q1))
        square = ExactMatrix.vstack([c, rest], m)
        check_inverse(square, m, pairs(square))
        if n == m:
            check_inverse(a, n, da)


@pytest.mark.parametrize("build", [
    lambda: rat(0.5),
    lambda: rat("1/2"),
    lambda: ExactMatrix.from_rows([[0.5]]),
    lambda: ExactMatrix.identity(2).scale(0.5),
    lambda: ExactMatrix.zeros(1).put(0, 0, 0.5),
    lambda: ExactMatrix.zeros(1).put(0, 0, (0, 0.5)),
    lambda: ExactMatrix.identity(2, 0.5),
    lambda: ExactMatrix.diag([0.5]),
    lambda: ExactMatrix.identity(2).scale("1/2"),
], ids=["float", "string", "float-entry", "float-scale", "float-put",
        "float-imag-put", "float-identity", "float-diag", "string-scale"])
def test_inexact_scalars_are_rejected(build):
    # one float would turn every later equality into an approximate one
    with pytest.raises(TypeError):
        build()


# -- fraction-free elimination against the dense Fraction reference --------

def _wide_entry(rng, kind):
    """A 40-bit numerator over one of several denominators, as a pair."""
    def one():
        return rat(rng.randint(-2 ** 40, 2 ** 40), rng.choice((1, 2, 3, 7, 12)))
    return one(), (one() if kind == "gaussian" else ZERO)


def wide_matrix(rng, n, m, kind):
    return ExactMatrix.from_rows([[_wide_entry(rng, kind) for _ in range(m)]
                                  for _ in range(n)])


def elimination_case(seed, kind, shape):
    rng = random.Random(1000 + seed)
    if shape == "tall":
        return wide_matrix(rng, 9, 4, kind)
    if shape == "wide":
        return wide_matrix(rng, 4, 9, kind)
    if shape == "square":
        return wide_matrix(rng, 6, 6, kind)
    if shape == "rank-deficient":  # 7 x 7 of rank 4
        return wide_matrix(rng, 7, 4, kind) * wide_matrix(rng, 4, 7, kind)
    # zero rows at the top, in the middle and at the bottom
    a = wide_matrix(rng, 6, 6, kind)
    for i in (0, 3, 5):
        for j in range(6):
            a.put(i, j, 0)
    return a


@pytest.mark.parametrize("shape", ["tall", "wide", "square",
                                   "rank-deficient", "zero-rows"])
@pytest.mark.parametrize("kind", ["real", "gaussian"])
@pytest.mark.parametrize("seed", range(3))
def test_fraction_free_elimination_matches_the_dense_reference(seed, kind,
                                                               shape):
    a = elimination_case(seed, kind, shape)
    n, m = a.nrows, a.ncols
    da = pairs(a)
    red, pivots = a.rref()
    want, want_pivots = ref_rref(n, m, da)
    assert pivots == want_pivots
    check(red, n, m, want)
    null = a.nullspace()
    check(null, m, m - len(pivots), _ref_nullspace(m, want, pivots))
    assert len(pivots) + null.ncols == m
    assert (a * null).is_zero()
    if n == m:
        check_inverse(a, n, da)
        singular = shape in ("rank-deficient", "zero-rows")
        assert (a.inverse() is None) == singular
        if not singular:
            assert a * a.inverse() == ExactMatrix.identity(n)


LABELS = ["A1", "A2", "A3", "A4", "B2", "C2", "D4", "T1", "T2", "T3", "T4",
          "A1xT1", "A1xA1", "A2xT2"]


def test_no_request_path_reaches_the_dense_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("matops.rref_cplx called")

    monkeypatch.setattr(ref, "rref_cplx", refuse)
    for label in LABELS:
        systemFromLabel(label)
    for label in ("A1:T", "A2:T", "A2:u2", "A2:full"):
        pairFromLabel(label)
    assert cp2(2).label == "cp2(k=2)"
    assert spectralCheckRelative(pairFromLabel("A2:T"), (1, 1))
