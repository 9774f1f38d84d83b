"""Exact matrix models of the irreducible representations, on
Gelfand-Tsetlin patterns (Gelfand-Tsetlin 1950; A. Molev, "Gelfand-Tsetlin
bases for classical Lie algebras", Handbook of Algebra 4, 2006, section 2).

A type A_r factor acts as gl_(r+1) with top row (lam_1 + ... + lam_r, ...,
lam_r, 0), and its basis vectors are the patterns under that row: rows of
k entries, k = r+1 down to 1, each interlacing the row above.  A torus
coordinate acts as the scalar i lam_p, a product system takes the product
of its factors' patterns, and the basis is sorted by weight.

The units act in closed form with rational entries: E_kk is diagonal,
E_(k,k+1) and E_(k+1,k) move one entry of row k by one with Molev's
coefficients, and every other E_jk is the commutator of two nearer units.
A frame direction is the combination of the units its defining block
holds.

The patterns are orthogonal for the invariant Hermitian form, and
E_(k+1,k) is the adjoint of E_(k,k+1).  So on an edge v -> c u of the
lowering walk from the highest pattern (norm 1), with u -> c' v back,
|u|^2 = |v|^2 c'/c.  Each pattern is then divided by the rational r with
|v|^2/r^2 = squarefree_core(|v|^2): the form stays diagonal with small
integer entries, and it is the identity on minuscule representations.

The build is self-checking at every dimension: every pi(X) must be
skew-adjoint for the form, the torus character must equal the
Freudenthal recursion's, computed in memory (the build reads and writes
no cache file), and the bracket relation of every pair of directions is
compared against the frame's structure constants.  Those checks fix
V_lambda up to isomorphism.
"""

from .characters import (FormalCharacter, _freudenthal,
                         _require_dominant_integral, weylDimension)
from .errors import BadStructureConstants, InternalError, TooLarge
from .exactmat import ExactMatrix, combination, commutator
from .rationals import ONE, ZERO, exact_sqrt, rat, rat_str, squarefree_core
from .structure import buildFrame

DIM_LIMIT = 64


def _moved(rows, t, i, step):
    """The pattern rows (row t holds t+1 entries, the top row last) with
    entry i of row t moved by step, or None when that breaks interlacing."""
    v = rows[t][i] + step
    above = rows[t + 1]
    if not above[i] >= v >= above[i + 1]:
        return None
    if t and ((i < t and v < rows[t - 1][i])
              or (i and v > rows[t - 1][i - 1])):
        return None
    return rows[:t] + (rows[t][:i] + (v,) + rows[t][i + 1:],) + rows[t + 1:]


def _coefficient(rows, t, i, step):
    """Molev's coefficient of E_(t,t+1) (step 1) or E_(t+1,t) (step -1) on
    the pattern rows, at the pattern with entry i of row t moved by step.
    With l_sj = rows[s][j] - j it is -prod_j (l_ti - l_(t+1)j) or
    prod_j (l_ti - l_(t-1)j), over prod_(j != i) (l_ti - l_tj)."""
    x = rows[t][i] - i
    num = -1 if step > 0 else 1
    for j, m in enumerate(rows[t + step] if t + step >= 0 else ()):
        num *= x - m + j
    den = 1
    for j, m in enumerate(rows[t]):
        if j != i:
            den *= x - m + j
    return rat(num, den)


def _diagonal(rows, t):
    """The eigenvalue of E_tt on the pattern rows."""
    return sum(rows[t]) - (sum(rows[t - 1]) if t else 0)


class LieRep:
    """system, frame, lam; pi[a] matches frame direction a; form is the
    diagonal invariant Hermitian form; weights[v] is the torus weight of
    basis vector v."""

    def __init__(self, system, frame, lam, pi, form, weights):
        self.system = system
        self.frame = frame
        self.lam = lam
        self.pi = tuple(pi)
        self.form = form
        self.weights = tuple(weights)
        self.dimension = form.nrows

    def character(self):
        entries = {}
        for w in self.weights:
            entries[w] = entries.get(w, 0) + 1
        return FormalCharacter(self.system, entries)


def buildLieRep(rs, lam):
    """Exact matrices for V_lambda over the compact frame of rs."""
    lam = _require_dominant_integral(rs, lam)
    dim = weylDimension(rs, lam)
    if dim > DIM_LIMIT:
        raise TooLarge("dim V = %d exceeds the desk-scale limit %d"
                       % (dim, DIM_LIMIT))
    frame = buildFrame(rs)

    # (factor, first coordinate, rank) of each A factor; a basis vector is
    # one pattern per A factor, the highest one has every row a prefix of
    # the top row
    blocks = []
    pos = 0
    for bi, (fam, rank) in enumerate(rs.factors):
        if fam == "A":
            blocks.append((bi, pos, rank))
        pos += rank
    highest = tuple(
        tuple(tuple(sum(lam[pos + j:pos + rank]) for j in range(t + 1))
              for t in range(rank + 1))
        for _, pos, rank in blocks)

    # walk down the lowering edges: |u|^2 = |v|^2 c'/c
    norms = {highest: ONE}
    walk = [highest]
    for state in walk:  # the walk appends what it finds to the list it reads
        for f, rows in enumerate(state):
            for t in range(len(rows) - 1):
                for i in range(t + 1):
                    low = _moved(rows, t, i, -1)
                    if low is None:
                        continue
                    nxt = state[:f] + (low,) + state[f + 1:]
                    if nxt in norms:
                        continue
                    norm = norms[state] * rat(_coefficient(low, t, i, 1),
                                              _coefficient(rows, t, i, -1))
                    if norm <= 0:
                        raise InternalError(
                            "Gelfand-Tsetlin norm %s is not positive"
                            % rat_str(norm))
                    norms[nxt] = norm
                    walk.append(nxt)
    if len(walk) != dim:
        raise InternalError("%d Gelfand-Tsetlin patterns, Weyl dimension"
                            " is %d" % (len(walk), dim))

    def weight(state):
        w = list(lam)  # a torus coordinate keeps lam_p
        for (_, pos, rank), rows in zip(blocks, state):
            for s in range(rank):
                w[pos + s] = _diagonal(rows, s) - _diagonal(rows, s + 1)
        return tuple(w)

    basis = sorted(walk, key=weight)
    index = {state: v for v, state in enumerate(basis)}
    cores = [squarefree_core(norms[state]) for state in basis]
    scales = [exact_sqrt(rat(norms[state], c))
              for state, c in zip(basis, cores)]

    # the units of each A factor on the scaled basis
    units = {}
    for f, (bi, _, rank) in enumerate(blocks):
        for t in range(rank + 1):
            units[bi, t, t] = ExactMatrix.diag(
                [_diagonal(state[f], t) for state in basis])
        for t in range(rank):
            for step, key in ((1, (bi, t, t + 1)), (-1, (bi, t + 1, t))):
                entries = {}
                for v, state in enumerate(basis):
                    rows = state[f]
                    for i in range(t + 1):
                        moved = _moved(rows, t, i, step)
                        if moved is not None:
                            u = index[state[:f] + (moved,) + state[f + 1:]]
                            entries[u, v] = rat(
                                _coefficient(rows, t, i, step) * scales[u],
                                scales[v])
                units[key] = ExactMatrix.from_entries(dim, dim, entries)
        for gap in range(2, rank + 1):
            for j in range(rank + 1 - gap):
                k = j + gap
                units[bi, j, k] = commutator(units[bi, j, k - 1],
                                             units[bi, k - 1, k])
                units[bi, k, j] = commutator(units[bi, k, k - 1],
                                             units[bi, k - 1, j])

    # each frame direction is the combination of its block's units
    pis = []
    for a in range(frame.dim):
        bi = frame.directionFactor[a]
        fam, boff, size = frame.factorBlocks[bi]
        if fam == "Torus":
            p = frame.names[a][1]
            pis.append(ExactMatrix.identity(dim).scale((ZERO, rat(lam[p]))))
            continue
        coefs = []
        mats = []
        for j in range(size):
            for k in range(size):
                z = frame.matrices[a].get(boff + j, boff + k)
                if z[0] or z[1]:
                    coefs.append(z)
                    mats.append(units[bi, j, k])
        pis.append(combination(coefs, mats, dim))

    rep = LieRep(rs, frame, lam, pis, ExactMatrix.diag(cores),
                 [weight(state) for state in basis])
    _verify_rep(rep)
    return rep


def _verify_rep(rep):
    frame = rep.frame
    d = rep.dimension
    for a in range(frame.dim):
        if not rep.pi[a].is_skewadjoint_wrt(rep.form):
            raise BadStructureConstants("pi is not skew-adjoint for the form")
    if rep.character().entries != _freudenthal(rep.system, rep.lam):
        raise BadStructureConstants("torus character mismatch")
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            want = combination(frame.bracketCoefficients(a, b), rep.pi, d)
            if commutator(rep.pi[a], rep.pi[b]) != want:
                raise BadStructureConstants(
                    "bracket relation failed at (%d, %d)" % (a, b))
