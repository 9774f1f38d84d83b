"""Sparse exact matrices over the Gaussian rationals.

A matrix is stored as integer numerators over one common denominator:
``re`` and ``im`` map each non-zero row to its non-zero entries,
``{i: {j: int}}``, and the entry at (i, j) is (re + i im) / ``den``.  The
imaginary map is empty while the matrix is real.  The form is kept
reduced: ``den`` is a positive int, gcd(den, every numerator) == 1, and
den == 1 when nothing is stored.  No zero is ever stored and no row is
ever empty, so zero-ness is emptiness and equality is map equality plus
the denominator.  Sums bring both sides to the lcm of their denominators,
products and Kronecker products multiply numerators and denominators, and
each result is reduced once; no entry is ever a ``Fraction``.  Rows are
never shared between matrices, because ``put`` edits them in place.

Scalars cross the API boundary as ``(re, im)`` pairs of ``Fraction``:
``get``, ``trace`` and ``scalar_of_identity`` return them, and every
method that takes a scalar accepts an int, a ``Fraction`` or a pair of
them.  Floats and strings raise ``TypeError``.

This is the one linear-algebra core of the package: a vector is a 1 x n
or n x 1 matrix, ``vstack`` stacks the row blocks of several matrices
into one system, and ``rref``, ``nullspace`` and ``inverse`` do every
elimination, fraction-free on the stored int rows.  Other modules keep no
vector arithmetic of their own.

Frame sums happen in one place too.  ``combination`` is a linear
combination sum_a c_a M_a, and ``contract`` is the dual-frame contraction
sum_{a,b} (G^-1)_{ab} L_a R_b, with the gram inverse G^-1 held as one
matrix from ``inverse`` to the sum that reads it.  Cliffords of a vector,
dual gammas, the Casimir, the spin map and the Dirac assembly are all
built from them.

Checks are matrix identities here as well.  Structure constants pass when
each ad_a is skew-adjoint for the gram and [ad_a, ad_b] = ad_[a,b]; a toric
vertex is unimodular when the inverse of its normals is integral; and the
gram a subgroup inherits is the one product toG^T G toG.

Adjointness is always relative to an explicitly recorded Hermitian form S:
``A`` is skew-adjoint for S when  A^H S + S A = 0  and self-adjoint when
A^H S = S A.  No orthonormalization is ever performed, so every check stays
inside exact arithmetic.
"""

from fractions import Fraction
from math import gcd, lcm

from .rationals import ZERO, rat, rat_str
from .errors import DimensionMismatch


def _rat(x):
    """x as an exact rational: an int or Fraction as it is, anything else
    through rat, which rejects floats and strings."""
    return x if isinstance(x, (int, Fraction)) else rat(x)


def _parts(z):
    """A scalar or (re, im) pair as two exact rationals."""
    if isinstance(z, tuple):
        return _rat(z[0]), _rat(z[1])
    return _rat(z), 0


def _split(z):
    """A scalar or (re, im) pair as ints (pr, pi, q) with z = (pr + i pi)/q
    and q > 0."""
    re, im = _parts(z)
    dr, di = re.denominator, im.denominator
    if dr == di:
        return re.numerator, im.numerator, dr
    q = lcm(dr, di)
    return re.numerator * (q // dr), im.numerator * (q // di), q


def gauss_str(z):
    re, im = z
    if not im:
        return rat_str(re)
    tail = "i" if abs(im) == 1 else rat_str(abs(im)) + "i"
    if not re:
        return ("-" if im < 0 else "") + tail
    return rat_str(re) + ("-" if im < 0 else "+") + tail


# -- one component: {i: {j: int}} with no zero and no empty row -------------

def _neg(a):
    return {i: {j: -v for j, v in row.items()} for i, row in a.items()}


def _times(a, s):
    """s * a for a non-zero int s."""
    return {i: {j: s * v for j, v in row.items()} for i, row in a.items()}


def _sum(a, b):
    """a + b, dropping the entries and rows that cancel."""
    if len(a) < len(b):
        a, b = b, a
    out = {i: dict(row) for i, row in a.items()}
    for i, brow in b.items():
        row = out.get(i)
        if row is None:
            out[i] = dict(brow)
            continue
        for j, v in brow.items():
            s = row.get(j)
            if s is None:
                row[j] = v
            else:
                s += v
                if s:
                    row[j] = s
                else:
                    del row[j]
        if not row:
            del out[i]
    return out


def _accumulate(acc, a, b, negate=False):
    """acc += a @ b (or -= when negate); acc may collect zeros, see _pruned."""
    for i, arow in a.items():
        orow = acc.get(i)
        if orow is None:
            orow = acc[i] = {}
        for t, x in arow.items():
            brow = b.get(t)
            if brow is None:
                continue
            if negate:
                x = -x
            for j, y in brow.items():
                p = x * y
                s = orow.get(j)
                orow[j] = p if s is None else s + p


def _axpy(acc, a, s):
    """acc += s * a for an int s; acc may collect zeros, see _pruned."""
    for i, row in a.items():
        orow = acc.get(i)
        if orow is None:
            acc[i] = {j: s * v for j, v in row.items()}
            continue
        for j, v in row.items():
            t = orow.get(j)
            orow[j] = s * v if t is None else t + s * v


def _pruned(acc):
    out = {}
    for i, row in acc.items():
        row = {j: v for j, v in row.items() if v}
        if row:
            out[i] = row
    return out


def _kron(a, b, n2, m2):
    """Kronecker product of two components; no entry can cancel."""
    out = {}
    brows = list(b.items())
    for i1, arow in a.items():
        base = i1 * n2
        acols = [(j1 * m2, x) for j1, x in arow.items()]
        for i2, brow in brows:
            out[base + i2] = {o + j2: x * y for o, x in acols
                              for j2, y in brow.items()}
    return out


def _transposed(a):
    out = {}
    for i, row in a.items():
        for j, v in row.items():
            col = out.get(j)
            if col is None:
                out[j] = {i: v}
            else:
                col[i] = v
    return out


def _store(part, i, j, v):
    if v:
        row = part.get(i)
        if row is None:
            part[i] = {j: v}
        else:
            row[j] = v
        return
    row = part.get(i)
    if row is not None and j in row:
        del row[j]
        if not row:
            del part[i]


def _reduced(re, im, den):
    """(re, im, den) divided by gcd(den, every numerator), so den == 1 when
    nothing is stored.  The gcd scan stops as soon as it reaches 1."""
    if den == 1:
        return re, im, den
    g = den
    for part in (re, im):
        for row in part.values():
            g = gcd(g, *row.values())
            if g == 1:
                return re, im, den
    return ({i: {j: v // g for j, v in row.items()} for i, row in re.items()},
            {i: {j: v // g for j, v in row.items()} for i, row in im.items()},
            den // g)


def _over_lcm(re, im):
    """Maps of non-zero rationals as (numerators, numerators, den) over the
    lcm of their denominators.  That lcm is already reduced: a prime power
    exactly dividing it divides one entry's denominator exactly, and that
    entry's numerator, times a factor prime to it, stays prime to it."""
    den = 1
    for part in (re, im):
        for row in part.values():
            for v in row.values():
                d = v.denominator
                if den % d:
                    den = lcm(den, d)
    return tuple({i: {j: v.numerator * (den // v.denominator)
                      for j, v in row.items()} for i, row in part.items()}
                 for part in (re, im)) + (den,)


def _combined(terms):
    """sum_k z_k row_k over Z[i], for (z, row) in terms with z an (re, im)
    pair of ints and row an (re, im) pair of {j: int}, divided by the gcd
    of its numerators.  Only //, so no entry ever becomes a Fraction."""
    re, im = {}, {}
    for (a, b), (xr, xi) in terms:
        # (a + i b)(xr + i xi) = (a xr - b xi) + i (a xi + b xr)
        for out, s, part in ((re, a, xr), (re, -b, xi), (im, a, xi),
                             (im, b, xr)):
            if s:
                for j, v in part.items():
                    out[j] = out.get(j, 0) + s * v
    re = {j: v for j, v in re.items() if v}
    im = {j: v for j, v in im.items() if v}
    g = gcd(*re.values(), *im.values())
    if g > 1:
        re = {j: v // g for j, v in re.items()}
        im = {j: v // g for j, v in im.items()}
    return re, im


def _eliminated(item, c, n, p):
    """A (lead column, row) item with column c cleared by the pivot row p,
    whose entry there is the int n: n q - q_c p; None when nothing is left."""
    q = item[1]
    z = q[0].get(c, 0), q[1].get(c, 0)
    if z == (0, 0):
        return item
    q = _combined([((n, 0), q), ((-z[0], -z[1]), p)])
    return (min([*q[0], *q[1]]), q) if q[0] or q[1] else None


class ExactMatrix:
    __slots__ = ("nrows", "ncols", "re", "im", "den")

    def __init__(self, nrows, ncols, re=None, im=None, den=1):
        """The matrix (re + i im) / den; the parts must already be in the
        reduced form the module docstring describes."""
        self.nrows = nrows
        self.ncols = ncols
        self.re = {} if re is None else re
        self.im = {} if im is None else im  # empty means identically real
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, nrows, ncols=None):
        return cls(nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, n, scale=None):
        s = 1 if scale is None else _rat(scale)
        if not s:
            return cls(n, n)
        v = s.numerator
        return cls(n, n, {i: {i: v} for i in range(n)}, None, s.denominator)

    @classmethod
    def diag(cls, values):
        n = len(values)
        re = {}
        im = {}
        for i, z in enumerate(values):
            x, y = _parts(z)
            if x:
                re[i] = {i: x}
            if y:
                im[i] = {i: y}
        return cls(n, n, *_over_lcm(re, im))

    @classmethod
    def vstack(cls, mats, ncols):
        """The rows of each matrix in turn, as one matrix of width ncols;
        ncols also gives the width when mats is empty.  The lcm of the
        blocks' reduced denominators needs no further reduction."""
        den = lcm(*(m.den for m in mats))
        out = cls(0, ncols, None, None, den)
        for m in mats:
            if m.ncols != ncols:
                raise DimensionMismatch("vstack: %d columns, need %d"
                                        % (m.ncols, ncols))
            f = den // m.den
            for part, opart in ((m.re, out.re), (m.im, out.im)):
                for i, row in part.items():
                    opart[out.nrows + i] = dict(row) if f == 1 else \
                        {j: f * v for j, v in row.items()}
            out.nrows += m.nrows
        return out

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls.from_entries(nrows, ncols, {
            (i, j): z for i, row in enumerate(rows)
            for j, z in enumerate(row)})

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """The nrows x ncols matrix with {(i, j): z} as its entries, z a
        scalar or an (re, im) pair; every entry not given is zero, so a
        sparse caller passes only its non-zero entries."""
        re = {}
        im = {}
        for (i, j), z in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise DimensionMismatch("entry (%d, %d) outside %d x %d"
                                        % (i, j, nrows, ncols))
            x, y = _parts(z)
            if x:
                re.setdefault(i, {})[j] = x
            if y:
                im.setdefault(i, {})[j] = y
        return cls(nrows, ncols, *_over_lcm(re, im))

    # -- entry access ---------------------------------------------------

    def get(self, i, j):
        row = self.re.get(i)
        r = 0 if row is None else row.get(j, 0)
        row = self.im.get(i)
        m = 0 if row is None else row.get(j, 0)
        den = self.den
        return (Fraction(r, den) if r else ZERO,
                Fraction(m, den) if m else ZERO)

    def put(self, i, j, z):
        pr, pi, q = _split(z)
        den = self.den
        if q != den:
            common = lcm(den, q)
            f = common // den
            if f != 1:
                for part in (self.re, self.im):
                    for row in part.values():
                        for k in row:
                            row[k] *= f
            f = common // q
            pr, pi, den = pr * f, pi * f, common
        _store(self.re, i, j, pr)
        _store(self.im, i, j, pi)
        self.re, self.im, self.den = _reduced(self.re, self.im, den)

    def row(self, i):
        return [self.get(i, j) for j in range(self.ncols)]

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.den, self.re, self.im) \
            == (other.nrows, other.ncols, other.den, other.re, other.im)

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def scalar_of_identity(self):
        """Return z with self == z * I, or None."""
        n = self.nrows
        if n != self.ncols or n == 0:
            return None
        for part in (self.re, self.im):
            if not part:
                continue
            if len(part) != n or 0 not in part[0]:
                return None
            v = part[0][0]
            for i, row in part.items():
                if len(row) != 1 or row.get(i) != v:
                    return None
        return self.get(0, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("add: %dx%d vs %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        den = self.den
        if other.den != den:
            den = lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            if fa != 1:
                ar, ai = _times(ar, fa), _times(ai, fa)
            if fb != 1:
                br, bi = _times(br, fb), _times(bi, fb)
        return ExactMatrix(self.nrows, self.ncols,
                           *_reduced(_sum(ar, br), _sum(ai, bi), den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.nrows, self.ncols, _neg(self.re),
                           _neg(self.im), self.den)

    def scale(self, z):
        pr, pi, q = _split(z)
        n, m = self.nrows, self.ncols
        if not pi:
            if not pr:
                return ExactMatrix(n, m)
            re, im = _times(self.re, pr), _times(self.im, pr)
        else:
            # (pr + i pi)(a + i b) = (pr a - pi b) + i (pr b + pi a)
            re = _times(self.im, -pi)
            im = _times(self.re, pi)
            if pr:
                re = _sum(_times(self.re, pr), re)
                im = _sum(_times(self.im, pr), im)
        return ExactMatrix(n, m, *_reduced(re, im, self.den * q))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _matmul(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("mul: %dx%d @ %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        re = {}
        _accumulate(re, ar, br)
        im = {}
        if ai and bi:
            _accumulate(re, ai, bi, negate=True)
        if bi:
            _accumulate(im, ar, bi)
        if ai:
            _accumulate(im, ai, br)
        return ExactMatrix(self.nrows, other.ncols,
                           *_reduced(_pruned(re), _pruned(im),
                                     self.den * other.den))

    def kron(self, other):
        n2, m2 = other.nrows, other.ncols
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        re = _kron(ar, br, n2, m2)
        im = {}
        if ai and bi:
            re = _sum(re, _neg(_kron(ai, bi, n2, m2)))
        if bi:
            im = _kron(ar, bi, n2, m2)
        if ai:
            im = _sum(im, _kron(ai, br, n2, m2))
        return ExactMatrix(self.nrows * n2, self.ncols * m2,
                           *_reduced(re, im, self.den * other.den))

    def transpose(self):
        return ExactMatrix(self.ncols, self.nrows, _transposed(self.re),
                           _transposed(self.im), self.den)

    def ctranspose(self):
        return ExactMatrix(self.ncols, self.nrows, _transposed(self.re),
                           _neg(_transposed(self.im)), self.den)

    def reshape(self, nrows, ncols):
        """The same entries, read row-major, as an nrows x ncols matrix."""
        if nrows * ncols != self.nrows * self.ncols:
            raise DimensionMismatch("reshape: %dx%d to %dx%d" % (
                self.nrows, self.ncols, nrows, ncols))
        m = self.ncols
        parts = []
        for part in (self.re, self.im):
            out = {}
            for i, row in part.items():
                for j, v in row.items():
                    r, c = divmod(i * m + j, ncols)
                    orow = out.get(r)
                    if orow is None:
                        out[r] = {c: v}
                    else:
                        orow[c] = v
            parts.append(out)
        return ExactMatrix(nrows, ncols, *parts, self.den)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of non-square")
        return tuple(Fraction(sum(row.get(i, 0) for i, row in part.items()),
                              self.den)
                     for part in (self.re, self.im))

    # -- adjointness w.r.t. a Hermitian form ---------------------------

    def is_skewadjoint_wrt(self, form):
        return (self.ctranspose() * form + form * self).is_zero()

    def is_selfadjoint_wrt(self, form):
        return self.ctranspose() * form == form * self

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Return (reduced matrix, pivot column list), by Gauss-Jordan on
        the int numerator rows over Z[i], fraction-free (cf. Bareiss, Math.
        Comp. 22, 1968): a pivot row p is multiplied by its pivot's
        conjugate, which leaves a positive int n there, each other row q
        becomes n q - q_c p, and every new row is divided by the gcd of its
        numerators.  Row p reduces to p / n, over the lcm of the pivots;
        the reduced form is unique, so it is that of self."""
        rows = [(min([*r, *i]), (r, i)) for r, i in (
            (self.re.get(k, {}), self.im.get(k, {}))
            for k in self.re.keys() | self.im.keys())]
        done = []  # (pivot column, pivot row), the columns increasing
        while rows:
            c, (r, i) = rows.pop(min(range(len(rows)),
                                     key=lambda t: rows[t][0]))
            x, y = r.get(c, 0), i.get(c, 0)
            p = _combined([((x, -y) if y else (1 if x > 0 else -1, 0),
                            (r, i))])
            done = [_eliminated(item, c, p[0][c], p) for item in done]
            rows = [item for item in (_eliminated(item, c, p[0][c], p)
                                      for item in rows) if item]
            done.append((c, p))
        den = lcm(*(p[0][c] for c, p in done))
        parts = ({}, {})
        for r, (c, p) in enumerate(done):
            f = den // p[0][c]
            for part, opart in zip(p, parts):
                if part:
                    opart[r] = {j: f * v for j, v in part.items()}
        return (ExactMatrix(self.nrows, self.ncols, *_reduced(*parts, den)),
                [c for c, _ in done])

    def nullspace(self):
        """Columns spanning {x : self x = 0}, as an ncols x d matrix."""
        red, pivots = self.rref()
        taken = set(pivots)
        free = [j for j in range(self.ncols) if j not in taken]
        re = {j: {c: red.den} for c, j in enumerate(free)}
        im = {}
        # row r of red belongs to pivot column pivots[r]; its entries in
        # the free columns, negated, complete the free columns' vectors
        where = {j: c for c, j in enumerate(free)}
        for part, opart in ((red.re, re), (red.im, im)):
            for r, row in part.items():
                for j, v in row.items():
                    c = where.get(j)
                    if c is not None:
                        opart.setdefault(pivots[r], {})[c] = -v
        return ExactMatrix(self.ncols, len(free), *_reduced(re, im, red.den))

    def inverse(self):
        """The inverse of a square matrix, None when it is singular.  With
        self = N / den, [N | den I] reduces to [I | self^-1]."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("inverse of a %dx%d matrix"
                                    % (n, self.ncols))
        re = {i: dict(row) for i, row in self.re.items()}
        for i in range(n):
            re.setdefault(i, {})[n + i] = self.den
        im = {i: dict(row) for i, row in self.im.items()}
        red, pivots = ExactMatrix(n, 2 * n, re, im).rref()
        if pivots[:n] != list(range(n)):
            return None
        # keep the right block; a row of it may be empty in one part
        parts = [{}, {}]
        for part, opart in zip((red.re, red.im), parts):
            for r, row in part.items():
                orow = {j - n: v for j, v in row.items() if j >= n}
                if orow:
                    opart[r] = orow
        return ExactMatrix(n, n, *_reduced(*parts, red.den))

    # -- serialization ----------------------------------------------------

    def to_strings(self):
        return [[gauss_str(self.get(i, j)) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def __repr__(self):
        if self.nrows * self.ncols > 64:
            return "<ExactMatrix %dx%d>" % (self.nrows, self.ncols)
        return "ExactMatrix(%r)" % (self.to_strings(),)


def combination(coefs, mats, n):
    """sum_a coefs[a] mats[a] as an n x n matrix, summed over one common
    denominator and reduced once."""
    terms = []
    den = 1
    for c, m in zip(coefs, mats):
        if (m.nrows, m.ncols) != (n, n):
            raise DimensionMismatch("combination: %dx%d term, need %dx%d"
                                    % (m.nrows, m.ncols, n, n))
        if c:
            pr, pi, q = _split(c)
            terms.append((pr, pi, q * m.den, m))
            den = lcm(den, q * m.den)
    re = {}
    im = {}
    for pr, pi, d, m in terms:
        f = den // d
        # (pr + i pi)(a + i b) = (pr a - pi b) + i (pr b + pi a)
        if pr:
            _axpy(re, m.re, pr * f)
            _axpy(im, m.im, pr * f)
        if pi:
            _axpy(re, m.im, -pi * f)
            _axpy(im, m.re, pi * f)
    return ExactMatrix(n, n, *_reduced(_pruned(re), _pruned(im), den))


def contract(left, right, ginv, n):
    """sum_{a,b} ginv_ab left[a] right[b] as an n x n matrix for a real
    matrix ginv: sum_a left[a] combination(row a of ginv, right), summed
    on ginv's int numerators and divided by its denominator once."""
    if ginv.im:
        raise TypeError("contract: the gram inverse must be real")
    out = ExactMatrix.zeros(n)
    for a, row in ginv.re.items():
        out = out + left[a] * combination(list(row.values()),
                                          [right[b] for b in row], n)
    return out if ginv.den == 1 else out.scale(rat(1, ginv.den))


def commutator(a, b):
    return a * b - b * a


def anticommutator(a, b):
    return a * b + b * a
