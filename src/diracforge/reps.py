"""Exact matrix models of the irreducible representations.

V_lambda is realized inside a tensor ambient built from fundamental wedge
representations: Lambda^k of a type A factor's defining block carries
omega_k, torus coordinates act as scalars, and the canonical highest
weight vector generates V_lambda under the simple lowering operators.

Every step is an ExactMatrix product or elimination; vectors are
1 x ambient rows.  The closure runs one height level at a time: the
weight space at mu is the row space of the stacked images of the weight
spaces mu + alpha_i on the level above, reduced with ``rref`` (pivot
entries 1).  Each weight space is orthogonalized without normalization,
so everything stays over Q(i): the invariant Hermitian form comes out
diagonal and every pi(X) is skew-adjoint for it.  With B the ambient x
dim matrix of basis columns, pi(X) restricts to the projection
M = diag(1/|b|^2) B^H (pi_X B).

The build is self-checking: B M == pi_X B must hold entry-exactly (this
is the invariance of the cyclic subspace), the simultaneous torus
eigenvalues must reproduce irreducibleCharacter, and the bracket relation
of every pair of directions is compared against the frame's structure
constants, at every dimension.
"""

import itertools
from bisect import bisect_left

from .characters import (FormalCharacter, _require_dominant_integral,
                         irreducibleCharacter, weylDimension)
from .errors import (BadStructureConstants, InternalError,
                     NotPositiveDefinite, TooLarge)
from .exactmat import (ExactMatrix, _gadd, combination, commutator,
                       orthogonal_rows)
from .rationals import ZERO, rat, rat_str
from .structure import buildFrame

DIM_LIMIT = 64
AMBIENT_LIMIT = 1024


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


def _orthogonal_rows(red, rank):
    """Gram-Schmidt without normalization on the first rank rows of red,
    under the standard Hermitian form: the rows as 1 x n matrices and their
    norms."""
    picks = []
    for r in range(rank):
        pick = ExactMatrix.zeros(1, red.nrows)
        pick.put(0, r, 1)
        picks.append(pick * red)
    try:
        return orthogonal_rows(picks)
    except NotPositiveDefinite as exc:
        # the rows of a reduced echelon form are independent
        raise InternalError("echelon rows are dependent: %s" % exc) from None


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
            raise TooLarge("tensor ambient reached %d wide; limit %d"
                           % (ambient, AMBIENT_LIMIT))

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
    weights = [tuple(pis[p].get(v, v)[1] for p in range(rs.rank))
               for v in range(ambient)]
    for p in range(rs.rank):
        if pis[p] != ExactMatrix.diag([(ZERO, w[p]) for w in weights]):
            raise InternalError("torus direction %d is not diagonal" % p)

    # highest weight vector: the all-tops tensor basis vector is index 0;
    # vectors are 1 x ambient rows, so X acts on them through X^T
    if weights[0] != lam:
        raise InternalError("the first tensor basis vector has weight (%s),"
                            " not the highest weight"
                            % ",".join(map(rat_str, weights[0])))
    top = ExactMatrix.zeros(1, ambient)
    top.put(0, 0, 1)
    simple_dirs = []
    for beta in rs.simpleRoots:
        adir = frame.index(("A", beta))
        fa, fb = pis[adir], pis[adir + 1]
        lower = fa.scale(rat(-1, 2)) + fb.scale((ZERO, rat(-1, 2)))
        raiser = fa.scale(rat(1, 2)) + fb.scale((ZERO, rat(-1, 2)))
        if not (top * raiser.transpose()).is_zero():
            raise InternalError("a raising operator moves the highest"
                                " weight vector")
        simple_dirs.append((beta, lower.transpose()))

    # cyclic closure under the lowering operators, one height level at a
    # time: the weight space at nw is the row space of the images of the
    # level above; its reduced echelon rows (pivot entries 1) are
    # orthogonalized at once, and distinct weights are orthogonal
    groups = {lam: _orthogonal_rows(top, 1)}
    level = [lam]
    while level:
        images = {}
        for w in level:
            block = ExactMatrix.vstack(groups[w][0], ambient)
            for beta, lower_t in simple_dirs:
                img = block * lower_t
                if not img.is_zero():
                    nw = tuple(c - b for c, b in zip(w, beta))
                    images.setdefault(nw, []).append(img)
        for nw, imgs in images.items():
            red, pivots = ExactMatrix.vstack(imgs, ambient).rref()
            groups[nw] = _orthogonal_rows(red, len(pivots))
        level = list(images)
    basis = []
    basis_weights = []
    norms = []
    for w in sorted(groups):
        rows, group_norms = groups[w]
        basis.extend(rows)
        basis_weights.extend([w] * len(rows))
        norms.extend(group_norms)
    if len(basis) != dim:
        raise BadStructureConstants(
            "cyclic closure gave %d vectors, Weyl dimension is %d"
            % (len(basis), dim))
    form = ExactMatrix.diag(norms)
    cols = ExactMatrix.vstack(basis, ambient).transpose()
    cols_h = cols.ctranspose()
    if cols_h * cols != form:
        raise InternalError("weight-space bases are not orthogonal")

    # restrict every direction: M = diag(1/n) B^H (pi_a B) projects the
    # images onto the basis, and B M == pi_a B says they never left it
    inv = ExactMatrix.diag([rat(1, n) for n in norms])
    rep_pi = []
    for a in range(frame.dim):
        img = pis[a] * cols
        m = inv * (cols_h * img)
        if cols * m != img:
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
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            want = combination(frame.bracketCoefficients(a, b), rep.pi, d)
            if commutator(rep.pi[a], rep.pi[b]) != want:
                raise BadStructureConstants(
                    "bracket relation failed at (%d, %d)" % (a, b))
