"""Exact matrix models of the irreducible representations.

V_lambda is realized inside a tensor ambient built from fundamental wedge
representations: Lambda^k of a type A factor's defining block carries
omega_k, torus coordinates act as scalars, and the canonical highest
weight vector generates V_lambda under the simple lowering operators.
The generated basis is grouped by weight and orthogonalized without
normalization, so everything stays over Q(i): the invariant Hermitian
form comes out diagonal and every pi(X) is skew-adjoint for it.

The build is self-checking: the expansion of each image over the basis is
verified entry-exactly (this is the invariance of the cyclic subspace),
the simultaneous torus eigenvalues must reproduce irreducibleCharacter,
and bracket relations are compared against the frame's structure
constants (in full at small dimension, on a Cartan-anchored subset past
that).
"""

import itertools
from bisect import bisect_left
from collections import deque

from .characters import (FormalCharacter, _require_dominant_integral,
                         irreducibleCharacter, weylDimension)
from .errors import BadStructureConstants, TooLarge
from .exactmat import ExactMatrix, _gadd, _gdiv, _gmul, commutator
from .rationals import ZERO, is_integer, rat
from .structure import CARTAN, buildFrame

GZERO = (ZERO, ZERO)
GONE = (rat(1), ZERO)

DIM_LIMIT = 64
AMBIENT_LIMIT = 1024
FULL_BRACKET_LIMIT = 24


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gconj(a):
    return (a[0], -a[1])


def _matvec(rows, vec):
    out = []
    for row in rows:
        acc = GZERO
        for j, z in row:
            v = vec[j]
            if v[0] or v[1]:
                acc = _gadd(acc, _gmul(z, v))
        out.append(acc)
    return out


def _dot(u, v):
    acc = GZERO
    for a, b in zip(u, v):
        if (a[0] or a[1]) and (b[0] or b[1]):
            acc = _gadd(acc, _gmul(_gconj(a), b))
    return acc


class _Reducer:
    """Incremental row reduction over Q(i); insert returns the reduced
    vector when it enlarges the span, None when dependent."""

    def __init__(self):
        self.rows = []

    def insert(self, vec):
        vec = list(vec)
        for pivot, row in self.rows:
            c = vec[pivot]
            if c[0] or c[1]:
                for i, rz in enumerate(row):
                    if rz[0] or rz[1]:
                        vec[i] = _gsub(vec[i], _gmul(c, rz))
        pivot = None
        for i, z in enumerate(vec):
            if z[0] or z[1]:
                pivot = i
                break
        if pivot is None:
            return None
        lead = vec[pivot]
        vec = [_gdiv(z, lead) if (z[0] or z[1]) else GZERO for z in vec]
        self.rows.append((pivot, vec))
        return tuple(vec)


def _wedge_matrix(local, k):
    """Action of a defining-block matrix on Lambda^k, lex subset basis."""
    s = local.nrows
    basis = list(itertools.combinations(range(s), k))
    index = {c: i for i, c in enumerate(basis)}
    n = len(basis)
    out = ExactMatrix.zeros(n)
    for cj, subset in enumerate(basis):
        for t, it in enumerate(subset):
            for r in range(s):
                z = local.get(r, it)
                if not (z[0] or z[1]):
                    continue
                if r in subset:
                    if r != it:
                        continue
                    target, sign = subset, 1
                else:
                    rest = [x for x in subset if x != it]
                    pos = bisect_left(rest, r)
                    rest.insert(pos, r)
                    target = tuple(rest)
                    sign = -1 if (t - pos) % 2 else 1
                ri = index[target]
                prev = out.get(ri, cj)
                add = z if sign == 1 else (-z[0], -z[1])
                out.put(ri, cj, _gadd(prev, add))
    return out


def _factor_block(frame, a):
    bi = frame.directionFactor[a]
    fam, boff, bsize = frame.factorBlocks[bi]
    sub = ExactMatrix.zeros(bsize)
    for i in range(bsize):
        for j in range(bsize):
            sub.put(i, j, frame.matrices[a].get(boff + i, boff + j))
    return bi, fam, sub


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

    # tensor ambient: one wedge slot per unit of each fundamental coordinate
    owner = []
    for bi, (fam, rank) in enumerate(rs.factors):
        for local in range(rank):
            owner.append((bi, fam, local))
    slots = []
    for bi, (fam, rank) in enumerate(rs.factors):
        if fam != "A":
            continue
        for p, (obi, ofam, local) in enumerate(owner):
            if obi != bi:
                continue
            mult = lam[p]
            size = rank + 1
            wdim = 1
            for t in range(local + 1):
                wdim = wdim * (size - t) // (t + 1)
            for _ in range(int(mult)):
                slots.append((bi, local + 1, wdim))
    ambient = 1
    for _, _, wdim in slots:
        ambient *= wdim
        if ambient > AMBIENT_LIMIT:
            raise TooLarge("tensor ambient exceeds %d" % AMBIENT_LIMIT)

    # per-direction ambient action
    wedge_cache = {}
    pis = []
    for a in range(frame.dim):
        bi, fam, sub = _factor_block(frame, a)
        if fam == "Torus":
            p = frame.names[a][1]
            pis.append(ExactMatrix.identity(ambient).scale((ZERO, rat(lam[p]))))
            continue
        total = ExactMatrix.zeros(ambient)
        for t, (sbi, k, wdim) in enumerate(slots):
            if sbi != bi:
                continue
            key = (a, k)
            if key not in wedge_cache:
                wedge_cache[key] = _wedge_matrix(sub, k)
            piece = wedge_cache[key]
            pre = 1
            for u in range(t):
                pre *= slots[u][2]
            post = ambient // (pre * wdim)
            lifted = ExactMatrix.identity(pre).kron(piece) \
                                              .kron(ExactMatrix.identity(post))
            total = total + lifted
        pis.append(total)

    # ambient weights from the (diagonal) torus actions
    for p in range(rs.rank):
        for i, row in enumerate(pis[p].sparse_rows()):
            assert all(j == i and z[0] == 0 for j, z in row)
    weights = []
    for v in range(ambient):
        weights.append(tuple(pis[p].get(v, v)[1] for p in range(rs.rank)))

    # highest weight vector: the all-tops tensor basis vector is index 0
    assert weights[0] == lam
    simple_dirs = []
    for i in range(len(rs.simple_positions)):
        beta = [rat(0)] * rs.rank
        for j, sp in enumerate(rs.simple_positions):
            beta[sp] = rat(rs.cartanMatrix[i][j])
        adir = frame.index(("A", tuple(beta)))
        simple_dirs.append((adir, tuple(beta)))
    lower_rows = []
    raise_rows = []
    for adir, _ in simple_dirs:
        fa, fb = pis[adir], pis[adir + 1]
        lower = fa.scale(rat(-1, 2)) + fb.scale((ZERO, rat(-1, 2)))
        raiser = fa.scale(rat(1, 2)) + fb.scale((ZERO, rat(-1, 2)))
        lower_rows.append(lower.sparse_rows())
        raise_rows.append(raiser.sparse_rows())
    top = [GZERO] * ambient
    top[0] = GONE
    for rr in raise_rows:
        assert not any(z[0] or z[1] for z in _matvec(rr, top))

    # cyclic closure under the lowering operators, grouped by weight
    groups = {}
    reducers = {}
    reducers[lam] = _Reducer()
    groups[lam] = [reducers[lam].insert(top)]
    queue = deque([(lam, groups[lam][0])])
    while queue:
        w, vec = queue.popleft()
        for si, (adir, beta) in enumerate(simple_dirs):
            img = _matvec(lower_rows[si], vec)
            if not any(z[0] or z[1] for z in img):
                continue
            nw = tuple(c - b for c, b in zip(w, beta))
            if nw not in reducers:
                reducers[nw] = _Reducer()
                groups[nw] = []
            red = reducers[nw].insert(img)
            if red is not None:
                groups[nw].append(red)
                queue.append((nw, red))
    basis = []
    basis_weights = []
    for w in sorted(groups):
        for vec in groups[w]:
            basis.append(list(vec))
            basis_weights.append(w)
    if len(basis) != dim:
        raise BadStructureConstants(
            "cyclic closure gave %d vectors, Weyl dimension is %d"
            % (len(basis), dim))

    # orthogonalize within weight groups; distinct weights are orthogonal
    start = 0
    norms = []
    for w in sorted(groups):
        block = len(groups[w])
        for i in range(start, start + block):
            for j in range(start, i):
                c = _gdiv(_dot(basis[j], basis[i]), (norms[j], ZERO))
                if c[0] or c[1]:
                    basis[i] = [_gsub(x, _gmul(c, y))
                                for x, y in zip(basis[i], basis[j])]
            nz = _dot(basis[i], basis[i])
            assert nz[1] == 0 and nz[0] > 0
            norms.append(nz[0])
        start += block
    for i in range(dim):
        for j in range(i):
            assert _dot(basis[i], basis[j]) == GZERO
    form = ExactMatrix.diag(norms)

    # restrict every direction: project the image and verify the expansion
    weight_of_group = {}
    for i, w in enumerate(basis_weights):
        weight_of_group.setdefault(w, []).append(i)
    rep_pi = []
    for a in range(frame.dim):
        rows = pis[a].sparse_rows()
        m = ExactMatrix.zeros(dim)
        for j in range(dim):
            img = _matvec(rows, basis[j])
            support = {weights[v] for v, z in enumerate(img) if z[0] or z[1]}
            recon = [GZERO] * ambient
            for w in support:
                for i in weight_of_group.get(w, ()):
                    c = _gdiv(_dot(basis[i], img), (norms[i], ZERO))
                    if c[0] or c[1]:
                        m.put(i, j, c)
                        recon = [_gadd(x, _gmul(c, y))
                                 for x, y in zip(recon, basis[i])]
            if recon != img:
                raise BadStructureConstants(
                    "image of basis vector left the cyclic subspace")
        rep_pi.append(m)

    rep = LieRep(rs, frame, lam, rep_pi, form, basis_weights)
    _verify_rep(rep)
    return rep


def _verify_rep(rep):
    frame = rep.frame
    d = rep.dimension
    for a in range(frame.dim):
        if not rep.pi[a].is_skewadjoint_wrt(rep.form):
            raise BadStructureConstants("pi is not skew-adjoint for the form")
    if rep.character() != irreducibleCharacter(rep.system, rep.lam):
        raise BadStructureConstants("torus character mismatch")
    if d <= FULL_BRACKET_LIMIT:
        pairs = [(a, b) for a in range(frame.dim) for b in range(a + 1, frame.dim)]
    else:
        # generators suffice at scale: Cartan against the simple pairs,
        # plus each simple (A, B) pair with itself
        pairs = []
        for start, beta in frame.rootPairs:
            if frame.system.rootCoefficients(beta).count(0) \
                    == len(frame.system.simple_positions) - 1:
                pairs.append((start, start + 1))
                for p in frame.cartanIndices():
                    pairs.extend(((p, start), (p, start + 1)))
    for a, b in pairs:
        coef = frame.bracketCoefficients(a, b)
        want = ExactMatrix.zeros(d)
        for c, x in enumerate(coef):
            if x:
                want = want + rep.pi[c].scale(x)
        if commutator(rep.pi[a], rep.pi[b]) != want:
            raise BadStructureConstants("bracket relation failed at (%d, %d)"
                                        % (a, b))
