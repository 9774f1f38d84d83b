"""Clifford algebra modules over the Gaussian rationals.

Sign convention throughout: c(e)^2 = -|e|^2 (wedge minus contraction).

buildCliffordFrame builds the module for an exact positive-definite gram,
such as the orthogonal-but-not-orthonormal frames of structure.py: the form
is congruence-diagonalized (no square roots), the diagonal directions are
paired into exact 2x2 block generators, iterated by Kronecker products, and
the generators are mapped back to the original frame directions, so
c(e_a)c(e_b) + c(e_b)c(e_a) = -2 G_ab holds entry-exactly.

Pairing needs matched square classes.  Two leftover directions of
different classes share a mixed block when their conic has a rational
point, and one leftover of square norm takes the parity slot.  Every other
leftover is doubled rather than refused: buildCliffordFrame appends a
matched auxiliary direction, builds the larger module, drops the
auxiliary gamma and records that the module is doubled.  The Z2-grading
exists exactly when all directions pair off within their square classes;
otherwise it is recorded as absent with the obstruction.

Every module carries its positive Hermitian form (diagonal, rational);
c(e) is skew-adjoint with respect to it.

Every module keeps the products gamma_a gamma_b, a < b, that its
relation check forms.  spinRepresentation is the one spin map, and it
reads them: each ad(X) is one linear combination of those products and
the identity, so it multiplies no Clifford matrices of its own.  On a
whole frame it gives the spin action ad of Kostant's operator; on a
block p of a reductive split g = h + p it gives the action on S_p of
every frame direction, ad^p for p and the spin action of h.  For an
equal-rank pair, PairSpinors is the one owner of the split, of S_p and
of those spin maps; splitCliffordForPair adds S_h and the Cl(g)-module
S_h (x) S_p on top of it.
"""

from copy import copy
from itertools import combinations
from math import lcm, prod

from . import structure as _structure
from .errors import (TooLarge, CliffordConstructionError,
                     BadStructureConstants, DimensionMismatch, NotOrthogonal)
from .exactmat import ExactMatrix, anticommutator, combination
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
    y = num/den with 0 <= num <= _CONIC_BOUND and 1 <= den <= _CONIC_BOUND;
    None when the search finds none, which leaves open whether the conic
    has a point."""
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


def _mixed_block(d1, point):
    """Generators for a block whose norms d1, d2 sit in different square
    classes, from a rational point (x, y) on x^2 + d1 y^2 = d2."""
    x, y = point
    b1 = ExactMatrix.from_rows([[ZERO, -d1], [rat(1), ZERO]])
    b2 = ExactMatrix.from_rows([[(ZERO, x), (ZERO, d1 * y)],
                                [(ZERO, y), (ZERO, -x)]])
    return b1, b2


class CliffordModule:
    """gamma[a] realizes c(e_a) for the a-th input direction.

    size: matrix size; grading: ExactMatrix or None (gradingReason says
    why); form: positive diagonal Hermitian form making every gamma
    skew-adjoint; doubled: True when auxiliary directions were added, each
    doubling the module; products: {(a, b): gamma_a gamma_b} for a < b,
    formed by the relation check and read by spinRepresentation.
    """

    def __init__(self, gram, gamma, grading, grading_reason, form, doubled):
        self.dim = len(gram)
        self.gram = gram
        self.gamma = tuple(gamma)
        self.size = gamma[0].nrows if gamma else form.nrows
        self.grading = grading
        self.gradingReason = grading_reason
        self.form = form
        self.doubled = doubled
        self._check()

    def _check(self):
        d = self.dim
        ident = ExactMatrix.identity(self.size)
        zero = ExactMatrix.zeros(self.size)
        failed, self.products = _relation_products(self.gamma, self.gram)
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
        """The module with its grading times sign.  The gammas, their
        products and the form are shared, and every check of _check holds
        for -grading when it holds for grading, so nothing is checked or
        multiplied again."""
        if self.grading is None:
            raise CliffordConstructionError("module has no grading")
        if sign == 1:
            return self
        flipped = copy(self)
        flipped.grading = self.grading.scale(rat(-1))
        return flipped


def _relation_products(gamma, gram):
    """(failed, products): products maps each (a, b), a < b, to gamma_a
    gamma_b, and failed is the first (a, b), a <= b, at which gamma_a
    gamma_b + gamma_b gamma_a differs from -2 gram[a][b], or None when
    every relation holds.  The check stops at a failure, so products is
    complete only when failed is None."""
    products = {}
    for a, ga in enumerate(gamma):
        if (ga * ga).scalar_of_identity() != (-gram[a][a], ZERO):
            return (a, a), products
        for b in range(a + 1, len(gamma)):
            ab = products[a, b] = ga * gamma[b]
            if (ab + gamma[b] * ga).scalar_of_identity() \
                    != (-2 * gram[a][b], ZERO):
                return (a, b), products
    return None, products


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
    """Group pivot indices into 2x2 blocks (a, b, point): hinted adjacent
    pairs first (root pairs share a class by construction), then remaining
    pivots by square class.  Of the pivots left over, one per class, the
    first two whose conic has a rational point share the mixed block, which
    carries the point and comes last, since its second generator does not
    anticommute with J.  Every other leftover gets an auxiliary block (b is
    None), except that without a mixed block one of square norm takes the
    parity slot.  Returns (blocks, parity), parity a pivot or None."""
    used = set()
    blocks = []
    for a, b in pair_hints:
        if squarefree_core(norms[a]) != squarefree_core(norms[b]):
            raise CliffordConstructionError("hinted pair has mismatched classes")
        blocks.append((a, b, None))
        used.update((a, b))
    by_class = {}
    for i, n in enumerate(norms):
        if i not in used:
            by_class.setdefault(squarefree_core(n), []).append(i)
    singles = []
    for cls in sorted(by_class):
        members = by_class[cls]
        while len(members) >= 2:
            blocks.append((members.pop(0), members.pop(0), None))
        singles.extend(members)
    mixed = []
    for a, b in combinations(singles, 2):
        point = _conic_point(norms[a], norms[b])
        if point is not None:
            mixed = [(a, b, point)]
            break
    parity = None if mixed else next(
        (a for a in singles if exact_sqrt(norms[a]) is not None), None)
    aux = [(a, None, None) for a in singles
           if a != parity and not any(a in blk[:2] for blk in mixed)]
    return blocks + aux + mixed, parity


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
                              ExactMatrix.identity(1), False)
    back, norms = _orthogonalize(gram)
    for a, b in pair_hints:
        if back[a][a] != 1 or back[b][b] != 1 \
                or any(back[a][k] for k in range(d) if k != a) \
                or any(back[b][k] for k in range(d) if k != b):
            raise CliffordConstructionError("hinted pair is not orthogonal")
    blocks, parity = _plan_blocks(norms, pair_hints)
    # an auxiliary block pairs a pivot with a matched direction whose gamma
    # is dropped, doubling the module
    doubled = any(b is None for _, b, _ in blocks)

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
    form = ExactMatrix.identity(1)
    for t, (a, b, point) in enumerate(blocks):
        if point is None:
            b1, b2 = _pair_block(norms[a], norms[a if b is None else b])
        else:
            b1, b2 = _mixed_block(norms[a], point)
        pivot_gamma[a] = lift(b1, t)
        if b is not None:
            pivot_gamma[b] = lift(b2, t)
        form = form.kron(ExactMatrix.diag([rat(1), norms[a]]))
    if parity is not None:
        # a square norm: i * sqrt(norm) times the parity chain
        # J (x) ... (x) J anticommutes with every block generator
        pivot_gamma[parity] = lift(J, nblocks).scale(
            (ZERO, exact_sqrt(norms[parity])))

    grading = reason = None
    disc = prod(norms)
    if d % 2:
        reason = "odd direction count"
    elif exact_sqrt(disc) is None:
        reason = "discriminant class %s is not a square" % squarefree_core(disc)
    elif doubled or parity is not None:
        reason = "norm classes left unpaired, so no grading is built"
    else:
        grading = lift(J, nblocks)

    pivots = [pivot_gamma[k] for k in range(d)]
    gamma = [combination(back[j], pivots, size) for j in range(d)]
    return CliffordModule(gram, gamma, grading, reason, form, doubled)


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

def _validate_structure(f, gram, jacobi):
    """Check the bracket table f, f[a][b] the coefficients of [X_a, X_b],
    against gram: antisymmetry and invariance of the form, and the Jacobi
    identity when jacobi is true."""
    d = len(f)
    sparse = [[{e: x for e, x in enumerate(coef) if x} for coef in row]
              for row in f]
    # the same brackets as ints over one denominator, for the exact sums
    # of antisymmetry and Jacobi
    den = lcm(*(x.denominator for row in sparse for col in row
                for x in col.values()))
    table = [[{e: x.numerator * (den // x.denominator) for e, x in col.items()}
              for col in row] for row in sparse]
    # f[a][b] = -f[b][a] is one condition per unordered pair
    for a in range(d):
        for b in range(a, d):
            if table[a][b] != {e: -x for e, x in table[b][a].items()}:
                raise BadStructureConstants("brackets are not antisymmetric")
    # ad[a] has column b = [X_a, X_b]; invariance of the form is
    # <[a,b],c> + <b,[a,c]> = 0, i.e. ad[a] skew-adjoint for the gram
    gram = ExactMatrix.from_rows(gram)
    for row in sparse:
        ad = ExactMatrix.from_entries(d, d, {
            (e, b): x for b, col in enumerate(row) for e, x in col.items()})
        if not ad.is_skewadjoint_wrt(gram):
            raise BadStructureConstants("form is not invariant")
    # given antisymmetry, the Jacobiator [[a,b],c] + [[b,c],a] + [[c,a],b]
    # is alternating, so it vanishes once it does for each a < b < c
    if jacobi:
        for a, b, c in combinations(range(d), 3):
            acc = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for k, u in table[x][y].items():
                    for e, v in table[k][z].items():
                        acc[e] = acc.get(e, 0) + u * v
            if any(acc.values()):
                raise BadStructureConstants("Jacobi identity fails")


def spinRepresentation(structure, cl, on=None):
    """ad(X_a) = (1/4) sum_{b,c} (G^-1)_{bc} c(X_b) c([X_a, X_c]).

    The contraction runs through the dual frame, reducing to the familiar
    orthonormal-basis formula when G = I; the factor order (Clifford of the
    basis vector first, bracket second) is the one that satisfies
    [ad(X), c(Y)] = c([X, Y]) under the minus sign convention.  Each ad(X_a)
    is one combination of the products gamma_b gamma_e, b < e, that cl
    formed for its relation check, and of the identity (_spin_terms),
    so the spin map multiplies no Clifford matrices of its own.

    With on, the indices of a block p of structure's directions that is
    orthogonal to the rest, cl is a module over p alone and b, c run over
    p: every bracket [X_a, X_c] is projected on p, each direction outside p
    must bracket p into itself ([h, p] inside p), and the table of p, the
    structure behind ad^p, is checked for antisymmetry and invariance but
    not for Jacobi, which the projection breaks.  Either way the result
    holds the action on cl of every direction of structure.
    """
    d = structure.dim
    block = range(d) if on is None else on
    if cl.dim != len(block):
        raise DimensionMismatch("Clifford module has %d directions, "
                                "structure has %d" % (cl.dim, len(block)))
    f = [[structure.bracketCoefficients(a, c) for c in block]
         for a in range(d)]
    gram, ginv = structure.gram, structure.gramInverse
    if on is not None:
        f = _projected(structure, f, on)
        gram = [[gram[a][b] for b in on] for a in on]
    _validate_structure([f[a] for a in block], gram, jacobi=on is None)
    # the non-zero (G^-1)_{bc} of each c; p is orthogonal to the rest, so
    # its dual frame is read off G^-1
    inv = ginv.nonzero()
    dual = [[(j, inv[b, c][0]) for j, b in enumerate(block) if (b, c) in inv]
            for c in block]
    ident = ExactMatrix.identity(cl.size)
    out = []
    for brackets in f:
        terms, scalar = _spin_terms(brackets, dual, cl.gram)
        out.append(combination([*terms.values(), scalar],
                               [*map(cl.products.get, terms), ident], cl.size))
    return out


def _projected(structure, f, on):
    """The table f, f[a][j] the coefficients of [X_a, X_{on[j]}], cut to
    the directions on; a direction outside on whose bracket leaves on
    raises."""
    inside = set(on)
    for a, row in enumerate(f):
        if a in inside:
            continue
        for j, coef in enumerate(row):
            if any(co for c, co in enumerate(coef) if c not in inside):
                raise NotOrthogonal(
                    "[h, p] escaped p at directions %s, %s"
                    % (_structure._direction_str(structure.names[a]),
                       _structure._direction_str(structure.names[on[j]])))
    return [[tuple(coef[c] for c in on) for coef in row] for row in f]


def _spin_terms(brackets, dual, gram):
    """The spin action of X as ({(b, e): coefficient of the product gamma_b
    gamma_e, b < e}, coefficient of the identity), where brackets[c] holds
    the coefficients of [X, X_c] and dual[c] the non-zero (b, (G^-1)_{bc}).
    (1/4) sum_{b,c} (G^-1)_{bc} c(X_b) c([X, X_c]) is sum_{b,e} m_be gamma_b
    gamma_e with m = (1/4) G^-1 F, F's row c being brackets[c]; the terms
    with b > e and b = e fold into the pairs and the identity through
    gamma_e gamma_b = -gamma_b gamma_e - 2 G_be and gamma_b^2 = -G_bb, gram
    being the module's G.  (For an invariant form m is antisymmetric, so
    the b = e terms vanish; the fold does not rely on it.)"""
    m = {}
    for c, coef in enumerate(brackets):
        for e, x in enumerate(coef):
            if x:
                for b, w in dual[c]:
                    m[b, e] = m.get((b, e), 0) + w * x
    terms = {}
    scalar = ZERO
    for (b, e), x in m.items():
        if b < e:
            terms[b, e] = terms.get((b, e), 0) + x
        elif b > e:
            terms[e, b] = terms.get((e, b), 0) - x
            scalar -= 2 * x * gram[b][e]
        else:
            scalar -= x * gram[b][b]
    quarter = rat(1, 4)
    return ({pair: quarter * x for pair, x in terms.items() if x},
            quarter * scalar)


# ---------------------------------------------------------------- pair split

class PairSpinors:
    """The part of the relative operator that no lambda changes, built
    once for an equal-rank pair, and the only code that splits a pair's
    frame: p is the root directions of pair.pRoots, h the whole Cartan
    and the kept root pairs.  It holds the frame, pIndices and hIndices,
    the p gram and its inverse, the graded S_p, the spin map ad^p on it
    (pSpin) and the spin action of each h direction (hSpin), both read
    off one spinRepresentation call, and the weights of the S_p basis
    vectors in G and in H coordinates.

    S_p is built with the root pairs sharing blocks, so the torus acts
    diagonally and the weights are read off it; its grading is oriented
    so the rho shift of the pair sits in the + eigenspace.
    """

    def __init__(self, pair):
        self.pair = pair
        self.frame = frame = _structure.buildFrame(pair.g)
        proots = set(pair.pRoots)
        self.pIndices = p = tuple(
            i for i, nm in enumerate(frame.names)
            if nm[0] != _structure.CARTAN and nm[1] in proots)
        self.hIndices = h = tuple(i for i in range(frame.dim) if i not in p)
        if any(frame.gram[a][b] for a in p for b in h):
            raise NotOrthogonal("p and h directions are not form-orthogonal")
        self.pGram = tuple(tuple(frame.gram[a][b] for b in p) for a in p)
        # h and p are orthogonal, so this is also the p block of G^-1
        self.pGramInverse = ExactMatrix.from_rows(self.pGram).inverse()
        hints = tuple((2 * i, 2 * i + 1) for i in range(len(pair.pRoots)))
        s_p = buildCliffordFrame(self.pGram, hints)
        if s_p.grading is None:
            raise CliffordConstructionError("p spinors must be graded")
        # the spin maps read only the gammas, which the sign leaves alone
        spin = spinRepresentation(frame, s_p, on=p)
        self.pSpin = [spin[a] for a in p]
        self.hSpin = tuple(spin[a] for a in h)
        # the Cartan directions lead the frame
        self.gWeights = _torus_weights(spin[:pair.g.rank], s_p.size)
        self.s_p = self._oriented(s_p)
        self.hWeights = tuple(tuple(map(coord, pair.weightToH(w)))
                              for w in self.gWeights)

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


def _torus_weights(actions, size):
    """Weights of the basis vectors of spinors of dimension size, read off
    the (diagonal) spin actions of the Cartan directions."""
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


class SpinorEmbedding:
    """Cl(g)-module structure on S_h (x) S_p: h-directions act through
    c_h (x) grading_p, p-directions through 1 (x) c_p; gammaFull is
    indexed like the ambient frame."""

    def __init__(self, spinors, s_h):
        self.spinors = spinors
        s_p = spinors.s_p
        self.gramFull = spinors.frame.gram
        id_h = ExactMatrix.identity(s_h.size)
        gammas = [None] * spinors.frame.dim
        for local, a in enumerate(spinors.hIndices):
            gammas[a] = s_h.gamma[local].kron(s_p.grading)
        for local, a in enumerate(spinors.pIndices):
            gammas[a] = id_h.kron(s_p.gamma[local])
        self.gammaFull = tuple(gammas)
        self.size = s_h.size * s_p.size
        if _relation_products(gammas, self.gramFull)[0] is not None:
            raise CliffordConstructionError(
                "tensor model broke a Clifford relation")


def splitCliffordForPair(pair):
    """(S_h, S_p, embedding) for an equal-rank pair.

    S_p and the split are those of PairSpinors(pair); S_h covers the
    whole Cartan plus the kept root pairs.  The embedding realizes Cl(g)
    on S_h (x) S_p.  The relative operator needs only S_p and never
    builds S_h.
    """
    spinors = PairSpinors(pair)
    h = spinors.hIndices
    gram = spinors.frame.gram
    rank = pair.g.rank
    kept_pairs = (len(h) - rank) // 2
    hint_h = tuple((rank + 2 * i, rank + 2 * i + 1) for i in range(kept_pairs))
    s_h = buildCliffordFrame(tuple(tuple(gram[a][b] for b in h) for a in h),
                             hint_h)
    return s_h, spinors.s_p, SpinorEmbedding(spinors, s_h)
