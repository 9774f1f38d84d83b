"""Sparse exact matrices over the Gaussian rationals.

A matrix keeps one map of non-zero rows per component, ``{i: {j: value}}``;
the imaginary map is empty while the matrix is real.  No zero is ever
stored and no row is ever empty, so zero-ness is emptiness, equality is map
equality, and every operation costs what the stored entries cost.  Rows are
never shared between matrices, because ``put`` edits them in place.
Scalars cross the API boundary as ``(re, im)`` pairs of ``Fraction``.

This is the one linear-algebra core of the package: a vector is a 1 x n
or n x 1 matrix, ``vstack`` stacks the row blocks of several matrices
into one system, and ``rref``/``nullspace`` do every elimination.  Other
modules keep no vector arithmetic of their own.

Frame sums happen in one place too.  ``combination`` is a linear
combination sum_a c_a M_a, ``contract`` is the dual-frame contraction
sum_{a,b} (G^-1)_{ab} L_a R_b, and ``inverse_rows`` gives the gram inverse
G^-1 those sums run through.  Cliffords of a vector, dual gammas, the
Casimir, the spin map and the Dirac assembly are all built from them.

Checks are matrix identities here as well.  Structure constants pass when
each ad_a is skew-adjoint for the gram and [ad_a, ad_b] = ad_[a,b]; a toric
vertex is unimodular when the inverse of its normals is integral; and the
gram a subgroup inherits is the one product toG^T G toG.

Adjointness is always relative to an explicitly recorded Hermitian form S:
``A`` is skew-adjoint for S when  A^H S + S A = 0  and self-adjoint when
A^H S = S A.  No orthonormalization is ever performed, so every check stays
inside exact arithmetic.
"""

from .rationals import ZERO, ONE, rat, rat_str
from . import matops
from .errors import DimensionMismatch


def gauss(re=0, im=0):
    """Coerce to a Gaussian rational pair."""
    return (rat(re), rat(im))


def gauss_str(z):
    re, im = z
    if not im:
        return rat_str(re)
    tail = "i" if abs(im) == 1 else rat_str(abs(im)) + "i"
    if not re:
        return ("-" if im < 0 else "") + tail
    return rat_str(re) + ("-" if im < 0 else "+") + tail


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


# -- one component: {i: {j: value}} with no zero and no empty row ----------

def _neg(a):
    return {i: {j: -v for j, v in row.items()} for i, row in a.items()}


def _times(a, s):
    """s * a for a non-zero rational s."""
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


def _dense(part, nrows, ncols):
    rows = [[ZERO] * ncols for _ in range(nrows)]
    for i, row in part.items():
        dense = rows[i]
        for j, v in row.items():
            dense[j] = v
    return rows


def _from_dense(rows):
    out = {}
    for i, dense in enumerate(rows):
        row = {j: v for j, v in enumerate(dense) if v}
        if row:
            out[i] = row
    return out


class ExactMatrix:
    __slots__ = ("nrows", "ncols", "re", "im")

    def __init__(self, nrows, ncols, re=None, im=None):
        self.nrows = nrows
        self.ncols = ncols
        self.re = {} if re is None else re
        self.im = {} if im is None else im  # empty means identically real

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, nrows, ncols=None):
        return cls(nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, n, scale=None):
        s = ONE if scale is None else rat(scale)
        return cls(n, n, {i: {i: s} for i in range(n)} if s else {})

    @classmethod
    def diag(cls, values):
        n = len(values)
        m = cls(n, n)
        for i, v in enumerate(values):
            m.put(i, i, v)
        return m

    @classmethod
    def vstack(cls, mats, ncols):
        """The rows of each matrix in turn, as one matrix of width ncols;
        ncols also gives the width when mats is empty."""
        out = cls(0, ncols)
        for m in mats:
            if m.ncols != ncols:
                raise DimensionMismatch("vstack: %d columns, need %d"
                                        % (m.ncols, ncols))
            for part, opart in ((m.re, out.re), (m.im, out.im)):
                for i, row in part.items():
                    opart[out.nrows + i] = dict(row)
            out.nrows += m.nrows
        return out

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            rr = {}
            ri = {}
            for j, v in enumerate(row):
                z = v if isinstance(v, tuple) else gauss(v)
                if z[0]:
                    rr[j] = rat(z[0])
                if z[1]:
                    ri[j] = rat(z[1])
            if rr:
                m.re[i] = rr
            if ri:
                m.im[i] = ri
        return m

    # -- entry access ---------------------------------------------------

    def get(self, i, j):
        row = self.re.get(i)
        r = ZERO if row is None else row.get(j, ZERO)
        row = self.im.get(i)
        return (r, ZERO if row is None else row.get(j, ZERO))

    def put(self, i, j, z):
        if not isinstance(z, tuple):
            z = gauss(z)
        _store(self.re, i, j, rat(z[0]))
        _store(self.im, i, j, rat(z[1]))

    def row(self, i):
        return [self.get(i, j) for j in range(self.ncols)]

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.re, self.im) \
            == (other.nrows, other.ncols, other.re, other.im)

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def scalar_of_identity(self):
        """Return z with self == z * I, or None."""
        n = self.nrows
        if n != self.ncols or n == 0:
            return None
        z = self.get(0, 0)
        for part, v in ((self.re, z[0]), (self.im, z[1])):
            if not v:
                if part:
                    return None
                continue
            if len(part) != n:
                return None
            for i, row in part.items():
                if len(row) != 1 or row.get(i) != v:
                    return None
        return z

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("add: %dx%d vs %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        return ExactMatrix(self.nrows, self.ncols, _sum(self.re, other.re),
                           _sum(self.im, other.im))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.nrows, self.ncols, _neg(self.re),
                           _neg(self.im))

    def scale(self, z):
        if not isinstance(z, tuple):
            z = gauss(z)
        zr, zi = rat(z[0]), rat(z[1])
        n, m = self.nrows, self.ncols
        if not zi:
            if not zr:
                return ExactMatrix(n, m)
            return ExactMatrix(n, m, _times(self.re, zr), _times(self.im, zr))
        # (zr + i zi)(a + i b) = (zr a - zi b) + i (zr b + zi a)
        re = _times(self.im, -zi)
        im = _times(self.re, zi)
        if zr:
            re = _sum(_times(self.re, zr), re)
            im = _sum(_times(self.im, zr), im)
        return ExactMatrix(n, m, re, im)

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
        return ExactMatrix(self.nrows, other.ncols, _pruned(re), _pruned(im))

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
        return ExactMatrix(self.nrows * n2, self.ncols * m2, re, im)

    def transpose(self):
        return ExactMatrix(self.ncols, self.nrows, _transposed(self.re),
                           _transposed(self.im))

    def ctranspose(self):
        return ExactMatrix(self.ncols, self.nrows, _transposed(self.re),
                           _neg(_transposed(self.im)))

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of non-square")
        return tuple(sum((row.get(i, ZERO) for i, row in part.items()), ZERO)
                     for part in (self.re, self.im))

    # -- adjointness w.r.t. a Hermitian form ---------------------------

    def is_skewadjoint_wrt(self, form):
        return (self.ctranspose() * form + form * self).is_zero()

    def is_selfadjoint_wrt(self, form):
        return self.ctranspose() * form == form * self

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Return (reduced matrix, pivot column list)."""
        n, m = self.nrows, self.ncols
        rr = _dense(self.re, n, m)
        ri = _dense(self.im, n, m)
        pivots = matops.rref_cplx(rr, ri, n, m, ZERO, ONE)
        return ExactMatrix(n, m, _from_dense(rr), _from_dense(ri)), pivots

    def nullspace(self):
        """Columns spanning {x : self x = 0}, as an ncols x d matrix."""
        red, pivots = self.rref()
        taken = set(pivots)
        free = [j for j in range(self.ncols) if j not in taken]
        out = ExactMatrix(self.ncols, len(free))
        for c, j in enumerate(free):
            out.re[j] = {c: ONE}
        # row r of red belongs to pivot column pivots[r]; its entries in
        # the free columns, negated, complete the free columns' vectors
        where = {j: c for c, j in enumerate(free)}
        for part, opart in ((red.re, out.re), (red.im, out.im)):
            for r, row in part.items():
                for j, v in row.items():
                    c = where.get(j)
                    if c is not None:
                        opart.setdefault(pivots[r], {})[c] = -v
        return out

    def solve(self, rhs):
        """Solve self @ x = rhs (rhs a matrix); None when inconsistent."""
        if rhs.nrows != self.nrows:
            raise DimensionMismatch("solve: rhs has %d rows, need %d" % (
                rhs.nrows, self.nrows))
        m = self.ncols
        aug = ExactMatrix(self.nrows, m + rhs.ncols)
        for part, rpart, apart in ((self.re, rhs.re, aug.re),
                                   (self.im, rhs.im, aug.im)):
            for i, row in part.items():
                apart[i] = dict(row)
            for i, row in rpart.items():
                arow = apart.setdefault(i, {})
                for j, v in row.items():
                    arow[m + j] = v
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= m:
            return None
        x = ExactMatrix(m, rhs.ncols)
        for part, xpart in ((red.re, x.re), (red.im, x.im)):
            for r, row in part.items():
                xrow = {j - m: v for j, v in row.items() if j >= m}
                if xrow:
                    xpart[pivots[r]] = xrow
        return x

    # -- serialization ----------------------------------------------------

    def to_strings(self):
        return [[gauss_str(self.get(i, j)) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def __repr__(self):
        if self.nrows * self.ncols > 64:
            return "<ExactMatrix %dx%d>" % (self.nrows, self.ncols)
        return "ExactMatrix(%r)" % (self.to_strings(),)


def combination(coefs, mats, n):
    """sum_a coefs[a] mats[a] as an n x n matrix."""
    out = ExactMatrix.zeros(n)
    for c, m in zip(coefs, mats):
        if c:
            out = out + m.scale(c)
    return out


def contract(left, right, ginv, n):
    """sum_{a,b} ginv[a][b] left[a] right[b] as an n x n matrix, summed as
    sum_a left[a] combination(ginv[a], right)."""
    out = ExactMatrix.zeros(n)
    for a, row in enumerate(ginv):
        if any(row):
            out = out + left[a] * combination(row, right, n)
    return out


def inverse_rows(rows):
    """The inverse of a square rational matrix given by its rows, as a
    tuple of row tuples; None when the matrix is singular."""
    n = len(rows)
    inv = ExactMatrix.from_rows(rows).solve(ExactMatrix.identity(n))
    if inv is None:
        return None
    return tuple(tuple(inv.get(i, j)[0] for j in range(n)) for i in range(n))


def commutator(a, b):
    return a * b - b * a


def anticommutator(a, b):
    return a * b + b * a
