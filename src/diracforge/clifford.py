"""Clifford algebra modules over the Gaussian rationals.

Sign convention throughout: c(e)^2 = -|e|^2 (wedge minus contraction).

buildCliffordFrame builds the module for an exact positive-definite gram,
such as the orthogonal-but-not-orthonormal frames of structure.py: the form
is congruence-diagonalized (no square roots), the diagonal directions are
paired into exact 2x2 block generators, iterated by Kronecker products, and
the generators are mapped back to the original frame directions, so
c(e_a)c(e_b) + c(e_b)c(e_a) = -2 G_ab holds entry-exactly.

Pairing needs matched square classes.  A leftover direction whose norm is
not a rational square has no irreducible module over Q(i); the builder then
doubles (appends a matched auxiliary direction, builds the even module,
drops the auxiliary gamma) and records that the module is the double of the
irreducible one.  The Z2-grading exists exactly when all directions pair
off within their square classes; otherwise it is recorded as absent with
the obstruction.

Every module carries its positive Hermitian form (diagonal, rational);
c(e) is skew-adjoint with respect to it.

For an equal-rank pair, PairSpinors holds what the relative operator reads
of the p spinors; splitCliffordForPair adds S_h and the Cl(g)-module
S_h (x) S_p on top of it.
"""

from . import structure as _structure
from .errors import (TooLarge, CliffordConstructionError,
                     BadStructureConstants, DimensionMismatch)
from .exactmat import (ExactMatrix, anticommutator, combination, commutator,
                       contract)
from .rationals import coord, rat, ONE, ZERO, exact_sqrt, squarefree_core


def _pair_block(d1, d2):
    """Generators for two directions of norms d1, d2 in the same square
    class (d2 = d1 r^2): 2x2 matrices squaring to -d1, -d2, anticommuting,
    with diagonal product (so torus actions stay diagonal downstream)."""
    r = exact_sqrt(rat(d2, d1))
    b1 = ExactMatrix.from_rows([[ZERO, -d1], [rat(1), ZERO]])
    b2 = ExactMatrix.from_rows([[ZERO, (ZERO, d1 * r)], [(ZERO, r), ZERO]])
    return b1, b2


_CONIC_BOUND = 48


def _conic_point(d1, d2):
    """Rational (x, y) with x^2 + d1 y^2 = d2, by a search over
    y = num/den with 0 <= num <= _CONIC_BOUND and 1 <= den <= _CONIC_BOUND."""
    for den in range(1, _CONIC_BOUND + 1):
        for num in range(0, _CONIC_BOUND + 1):
            y = rat(num, den)
            rest = d2 - d1 * y * y
            if rest < 0:
                break
            x = exact_sqrt(rest)
            if x is not None:
                return x, y
    return None


def _mixed_block(d1, d2):
    """Generators for a final block whose norms sit in different square
    classes; exists whenever x^2 + d1 y^2 = d2 has a rational point."""
    pt = _conic_point(d1, d2)
    if pt is None:
        raise CliffordConstructionError(
            "bounded search found no rational point on x^2 + %s y^2 = %s "
            "with y = p/q, 0 <= p <= %d, 1 <= q <= %d; whether the conic "
            "has one was not decided"
            % (d1, d2, _CONIC_BOUND, _CONIC_BOUND))
    x, y = pt
    b1 = ExactMatrix.from_rows([[ZERO, -d1], [rat(1), ZERO]])
    b2 = ExactMatrix.from_rows([[(ZERO, x), (ZERO, d1 * y)],
                                [(ZERO, y), (ZERO, -x)]])
    return b1, b2


class CliffordModule:
    """gamma[a] realizes c(e_a) for the a-th input direction.

    size: matrix size; grading: ExactMatrix or None (gradingReason says
    why); form: positive diagonal Hermitian form making every gamma
    skew-adjoint; doubled: True when the module is twice the irreducible.
    """

    def __init__(self, gram, gamma, grading, grading_reason, form, doubled,
                 pivot_data):
        self.dim = len(gram)
        self.gram = gram
        self.gamma = tuple(gamma)
        self.size = gamma[0].nrows if gamma else form.nrows
        self.grading = grading
        self.gradingReason = grading_reason
        self.form = form
        self.doubled = doubled
        self.pivotData = pivot_data
        self._check()

    def _check(self):
        d = self.dim
        ident = ExactMatrix.identity(self.size)
        zero = ExactMatrix.zeros(self.size)
        failed = _relation_failure(self.gamma, self.gram, self.size)
        if failed is not None:
            raise CliffordConstructionError(
                "relation failed at directions %d, %d" % failed)
        for a in range(d):
            if not self.gamma[a].is_skewadjoint_wrt(self.form):
                raise CliffordConstructionError(
                    "generator %d is not skew-adjoint for the form" % a)
        if self.grading is not None:
            if self.grading * self.grading != ident:
                raise CliffordConstructionError("grading does not square to 1")
            for g in self.gamma:
                if anticommutator(self.grading, g) != zero:
                    raise CliffordConstructionError(
                        "grading fails to anticommute")
            if d and self.grading.trace() != (ZERO, ZERO):
                raise CliffordConstructionError("grading eigenspaces unbalanced")

    def withGradingSign(self, sign):
        if self.grading is None:
            raise CliffordConstructionError("module has no grading")
        if sign == 1:
            return self
        return CliffordModule(self.gram, self.gamma,
                              self.grading.scale(rat(-1)), self.gradingReason,
                              self.form, self.doubled, self.pivotData)

    def cliffordOf(self, coef):
        """c(v) for v = sum coef_a e_a over the input directions."""
        return combination(coef, self.gamma, self.size)


def _relation_failure(gamma, gram, size):
    """The first (a, b), a <= b, at which gamma_a gamma_b + gamma_b gamma_a
    differs from -2 gram[a][b], or None when every relation holds."""
    ident = ExactMatrix.identity(size)
    for a in range(len(gamma)):
        for b in range(a, len(gamma)):
            if anticommutator(gamma[a], gamma[b]) \
                    != ident.scale(-2 * gram[a][b]):
                return a, b
    return None


def _orthogonalize(gram):
    """Square-root-free Cholesky G = back diag(norms) back^T (LDL^T).
    back is unit lower triangular: back[j][k] expands input direction e_j
    over the orthogonal pivots v_k, and norms[k] = <v_k, v_k> > 0."""
    d = len(gram)
    back = [[ZERO] * d for _ in range(d)]
    norms = []
    for j, lj in enumerate(back):
        for k in range(j):
            lk = back[k]
            lj[k] = rat(gram[j][k] - sum(lj[m] * lk[m] * norms[m]
                                         for m in range(k)), norms[k])
        norm = gram[j][j] - sum(lj[m] * lj[m] * norms[m] for m in range(j))
        if norm <= 0:
            raise CliffordConstructionError(
                "frame gram is not positive definite")
        lj[j] = ONE
        norms.append(norm)
    return back, norms


def _plan_blocks(norms, pair_hints):
    """Group pivot indices into 2x2 blocks: hinted adjacent pairs first
    (root pairs share a class by construction), then remaining pivots by
    square class; at most one mixed block (last) or one odd leftover."""
    used = set()
    blocks = []
    for a, b in pair_hints:
        if squarefree_core(norms[a]) != squarefree_core(norms[b]):
            raise CliffordConstructionError("hinted pair has mismatched classes")
        blocks.append((a, b, "same"))
        used.update((a, b))
    by_class = {}
    for i, n in enumerate(norms):
        if i in used:
            continue
        by_class.setdefault(squarefree_core(n), []).append(i)
    singles = []
    for cls in sorted(by_class):
        members = by_class[cls]
        while len(members) >= 2:
            blocks.append((members.pop(0), members.pop(0), "same"))
        if members:
            singles.append(members[0])
    if len(singles) > 2:
        raise CliffordConstructionError(
            "more than two unpaired norm classes; no exact module at this size")
    if len(singles) == 2:
        blocks.append((singles[0], singles[1], "mixed"))
        return blocks, None
    return blocks, (singles[0] if singles else None)


def buildCliffordFrame(gram, pair_hints=()):
    """Clifford module for an exact symmetric positive-definite gram.

    pair_hints: index pairs that must share a 2x2 block (used for the
    (A_b, B_b) root pairs so torus actions come out diagonal); hinted
    directions must already be orthogonal to everything else.
    """
    d = len(gram)
    if d > 12:
        raise TooLarge("frame has %d directions, so S would be at least %d "
                       "wide; limit 12 directions" % (d, 2 ** (d // 2)))
    gram = tuple(tuple(rat(c) for c in row) for row in gram)
    if d == 0:
        return CliffordModule(gram, [], ExactMatrix.identity(1), None,
                              ExactMatrix.identity(1), False,
                              {"norms": (), "blocks": (), "leftover": None})
    back, norms = _orthogonalize(gram)
    for a, b in pair_hints:
        if back[a][a] != 1 or back[b][b] != 1 \
                or any(back[a][k] for k in range(d) if k != a) \
                or any(back[b][k] for k in range(d) if k != b):
            raise CliffordConstructionError("hinted pair is not orthogonal")
    blocks, leftover = _plan_blocks(norms, pair_hints)

    doubled = False
    odd_root = None
    if leftover is not None:
        odd_root = exact_sqrt(norms[leftover])
        if odd_root is None:
            # no irreducible module over Q(i): append a matched auxiliary
            # direction and drop its gamma, doubling the module
            blocks.append((leftover, None, "aux"))
            doubled = True

    nblocks = len(blocks)
    size = 2 ** nblocks
    J = ExactMatrix.diag([rat(-1), rat(1)])
    eye2 = ExactMatrix.identity(2)

    def lift(mat, slot):
        out = None
        for t in range(nblocks):
            piece = mat if t == slot else (J if t < slot else eye2)
            out = piece if out is None else out.kron(piece)
        return out if out is not None else ExactMatrix.identity(1)

    pivot_gamma = {}
    form_factors = []
    for t, (a, b, kind) in enumerate(blocks):
        if kind == "same":
            b1, b2 = _pair_block(norms[a], norms[b])
        elif kind == "mixed":
            b1, b2 = _mixed_block(norms[a], norms[b])
        else:
            b1, b2 = _pair_block(norms[a], norms[a])
        pivot_gamma[a] = lift(b1, t)
        if b is not None:
            pivot_gamma[b] = lift(b2, t)
        form_factors.append(ExactMatrix.diag([rat(1), norms[a]]))

    if leftover is not None and not doubled:
        # single unpaired direction with square norm: i * sqrt(norm) times
        # the full parity chain anticommutes with every block generator
        parity = ExactMatrix.identity(1)
        for _ in range(nblocks):
            parity = parity.kron(J)
        pivot_gamma[leftover] = parity.scale((ZERO, odd_root))

    form = ExactMatrix.identity(1)
    for f in form_factors:
        form = form.kron(f)

    grading = None
    reason = None
    if leftover is not None or doubled:
        reason = "odd direction count"
    else:
        disc = rat(1)
        for n in norms:
            disc *= n
        if exact_sqrt(disc) is None:
            reason = "discriminant class %s is not a square" % squarefree_core(disc)
        else:
            grading = ExactMatrix.identity(1)
            for _ in range(nblocks):
                grading = grading.kron(J)

    pivots = [pivot_gamma[k] for k in range(d)]
    gamma = [combination(back[j], pivots, size) for j in range(d)]

    pivot_data = {"norms": tuple(norms), "blocks": tuple(blocks),
                  "leftover": leftover}
    return CliffordModule(gram, gamma, grading, reason, form, doubled,
                          pivot_data)


def frameClifford(frame):
    """The module of a compact frame, each root pair (A_b, B_b) sharing a
    block so the torus acts diagonally; built once and kept on the frame,
    which every representation of its system shares."""
    cl = getattr(frame, "_clifford", None)
    if cl is None:
        hints = tuple((i, i + 1) for i, nm in enumerate(frame.names)
                      if nm[0] == _structure.ROOT_A)
        cl = frame._clifford = buildCliffordFrame(frame.gram, hints)
    return cl


# ----------------------------------------------------------------- spin rep

def _validate_structure(structure):
    d = structure.dim
    f = [[structure.bracketCoefficients(a, b) for b in range(d)]
         for a in range(d)]
    for a in range(d):
        for b in range(d):
            if any(x + y for x, y in zip(f[a][b], f[b][a])):
                raise BadStructureConstants("brackets are not antisymmetric")
    # ad[a] has column b = [X_a, X_b]; invariance of the form is
    # <[a,b],c> + <b,[a,c]> = 0, i.e. ad[a] skew-adjoint for the gram
    ad = [ExactMatrix.from_rows([list(col) for col in f[a]]).transpose()
          for a in range(d)]
    gram = ExactMatrix.from_rows(structure.gram)
    for a in range(d):
        if not ad[a].is_skewadjoint_wrt(gram):
            raise BadStructureConstants("form is not invariant")
    # given antisymmetry, Jacobi is [ad_a, ad_b] = ad_[a,b]; projected
    # structures (ad^p) are deliberately non-Lie and opt out
    if getattr(structure, "requireJacobi", True):
        for a in range(d):
            for b in range(a + 1, d):
                if commutator(ad[a], ad[b]) != combination(f[a][b], ad, d):
                    raise BadStructureConstants("Jacobi identity fails")
    return f


def spinRepresentation(structure, cl):
    """ad(X_a) = (1/4) sum_{b,c} (G^-1)_{bc} c(X_b) c([X_a, X_c]).

    The contraction runs through the dual frame, reducing to the familiar
    orthonormal-basis formula when G = I; the factor order (Clifford of the
    basis vector first, bracket second) is the one that satisfies
    [ad(X), c(Y)] = c([X, Y]) under the minus sign convention.
    """
    d = structure.dim
    if cl.dim != d:
        raise DimensionMismatch("Clifford module has %d directions, "
                                "structure has %d" % (cl.dim, d))
    f = _validate_structure(structure)
    return [_spin_of(f[a], cl, structure.gramInverse) for a in range(d)]


def _spin_of(brackets, cl, ginv):
    """(1/4) sum_{b,c} (G^-1)_{bc} c(X_b) c([X, X_c]), where brackets[c]
    holds the coefficients of [X, X_c] over the directions of cl."""
    cbr = [cl.cliffordOf(br) for br in brackets]
    return contract(cl.gamma, cbr, ginv, cl.size).scale(rat(1, 4))


# ---------------------------------------------------------------- pair split

class PStructure:
    """The p block with p-projected brackets: the structure behind ad^p.
    Not a Lie algebra (projection breaks Jacobi), which is the point."""

    requireJacobi = False

    def __init__(self, pframe):
        self.pframe = pframe
        self.dim = len(pframe.pIndices)
        self.gram = pframe.pGram
        self.gramInverse = pframe.pGramInverse

    def bracketCoefficients(self, a, b):
        return self.pframe.pBracketInP(a, b)


def hSpinAction(pframe, s_p, h_local):
    """Spin action on S_p of the h-frame direction with local index
    h_local: (1/4) sum (Gp^-1)_{bc} c(u_b) c([Y, u_c]); lands in p exactly
    because [h, p] is inside p."""
    brackets = [pframe.hBracketOnP(h_local, c)
                for c in range(len(pframe.pIndices))]
    return _spin_of(brackets, s_p, pframe.pGramInverse)


class PairSpinors:
    """The part of the relative operator that no lambda changes, built
    once for an equal-rank pair: the pair frame, the graded S_p, the spin
    map ad^p on it, the spin action of each h direction, and the weights
    of the S_p basis vectors in G and in H coordinates.

    S_p is built with the root pairs sharing blocks, so the torus acts
    diagonally and the weights are read off it; its grading is oriented
    so the rho shift of the pair sits in the + eigenspace.
    """

    def __init__(self, pair):
        self.pair = pair
        self.pframe = pframe = _structure.PairFrame(pair)
        hints = tuple((2 * i, 2 * i + 1) for i in range(len(pair.pRoots)))
        s_p = buildCliffordFrame(pframe.pGram, hints)
        if s_p.grading is None:
            raise CliffordConstructionError("p spinors must be graded")
        # the spin actions read only the gammas, which the sign leaves alone
        self.hSpin = tuple(hSpinAction(pframe, s_p, local)
                           for local in range(len(pframe.hIndices)))
        self.gWeights = self._torus_weights(s_p.size)
        self.s_p = self._oriented(s_p)
        self.pSpin = spinRepresentation(PStructure(pframe), self.s_p)
        self.hWeights = tuple(tuple(map(coord, pair.weightToH(w)))
                              for w in self.gWeights)

    def _torus_weights(self, size):
        """G-weights of the S_p basis vectors, read off the (diagonal)
        spin actions of the Cartan directions."""
        h_indices = self.pframe.hIndices
        actions = [self.hSpin[h_indices.index(p)]
                   for p in range(self.pair.g.rank)]
        for m in actions:
            if m != ExactMatrix.diag([m.get(v, v) for v in range(size)]):
                raise CliffordConstructionError(
                    "torus spin action is not diagonal")
        weights = []
        for v in range(size):
            coords = []
            for m in actions:
                re, im = m.get(v, v)
                if re != 0:
                    raise CliffordConstructionError(
                        "torus eigenvalue not imaginary")
                coords.append(coord(im))
            weights.append(tuple(coords))
        return tuple(weights)

    def _oriented(self, s_p):
        """s_p with its grading sign chosen so the highest spinor weight
        (the rho shift of the pair, in G coordinates) sits in the +
        eigenspace."""
        target = self.pair.weightToG(self.pair.shift)
        hits = [v for v, w in enumerate(self.gWeights) if w == target]
        if len(hits) != 1:
            raise CliffordConstructionError(
                "rho-shift spinor weight not unique")
        sign = s_p.grading.get(hits[0], hits[0])[0]
        return s_p if sign == 1 else s_p.withGradingSign(-1)


class SpinorEmbedding:
    """Cl(g)-module structure on S_h (x) S_p: h-directions act through
    c_h (x) grading_p, p-directions through 1 (x) c_p; gammaFull is
    indexed like the ambient frame."""

    def __init__(self, pframe, s_h, s_p):
        self.pairFrame = pframe
        self.gramFull = pframe.frame.gram
        id_h = ExactMatrix.identity(s_h.size)
        gammas = [None] * pframe.frame.dim
        for local, a in enumerate(pframe.hIndices):
            gammas[a] = s_h.gamma[local].kron(s_p.grading)
        for local, a in enumerate(pframe.pIndices):
            gammas[a] = id_h.kron(s_p.gamma[local])
        self.gammaFull = tuple(gammas)
        self.size = s_h.size * s_p.size
        if _relation_failure(gammas, self.gramFull, self.size) is not None:
            raise CliffordConstructionError(
                "tensor model broke a Clifford relation")


def splitCliffordForPair(pair):
    """(S_h, S_p, embedding) for an equal-rank pair.

    S_p and the pair frame are those of PairSpinors(pair); S_h covers the
    whole Cartan plus the kept root pairs.  The embedding realizes Cl(g)
    on S_h (x) S_p.  The relative operator needs only S_p and never
    builds S_h.
    """
    spinors = PairSpinors(pair)
    pframe = spinors.pframe
    rank = pair.g.rank
    kept_pairs = (len(pframe.hIndices) - rank) // 2
    hint_h = tuple((rank + 2 * i, rank + 2 * i + 1) for i in range(kept_pairs))
    s_h = buildCliffordFrame(pframe.hGram, hint_h)
    return s_h, spinors.s_p, SpinorEmbedding(pframe, s_h, spinors.s_p)
