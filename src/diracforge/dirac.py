"""Cubic Dirac operators and their exact spectral checks.

All sums over the frame are dual contracted: sum_i X_i (x) X_i in an
orthonormal basis becomes sum_{a,b} (G^-1)_{ab} X_a (x) X_b here, so the
operators are basis independent without ever leaving Q(i).  The sums run
through exactmat's combination and contract, with the dual gammas
c^a = sum_b (G^-1)_{ab} c(X_b).  The operator is assembled as
sum_a pi_a (x) c^a + 1 (x) K, where the spin part K = q sum_a ad_a c^a is
summed in S and tensored once.

The square identities are exact matrix statements and are checked as
such.  The full operator satisfies D^2 = Cas_V + |rho|^2 with the Casimir
acting through pi alone; the report of verifyKostantIdentity audits this
against the tensor-diagonal reading of the Casimir and against the two
candidate values for the affine constant (they agree by the strange
formula, which is part of the audit's point).  Once D^2 = c I is proved,
both readings come from c and characters, not matrices: V is irreducible,
so the pi-only one is c - <lam, lam + 2 rho>, and S is a sum of copies of
V_rho (Kostant), so the tensor-diagonal one is c - <nu, nu + 2 rho> when
every summand nu of V_lam (x) V_rho shares that value, else a failure.

What does not depend on lambda is built once per request and kept on the
object it belongs to: the frame on its system (structure.buildFrame), the
frame's module and spin map on the frame, the strange-formula constant on
the system, and a pair's PairSpinors (the p/h split of the frame, graded
S_p, the spin maps of p and h on S_p from one spinRepresentation call,
the spinor weights) on the pair.  Every lambda of a sweep or of
kernelIndex reads them; the checks that depend on lambda (the rep,
self-adjoint and odd, H-equivariance, the square, the block scalars)
still run for each lambda.  The relative operator acts on
V (x) S_p, as in Cl(g) = Cl(h) (x) Cl(p), and never builds S_h.
"""

import itertools
from operator import add

from .characters import (FormalCharacter, _check_summands, _dimension,
                         _freudenthal, _straighten, decomposeCharacter,
                         weylDimension)
from .clifford import PairSpinors, spinRepresentation
from .errors import (DimensionMismatch, DiracforgeError, NotScalar,
                     SpectralMismatch, TooLarge)
from .exactmat import ExactMatrix, combination, commutator, contract
from .rationals import ZERO, rat, rat_str
from .liecore import weightString
from .reps import buildLieRep

RELATIVE_SIZE_LIMIT = 512


class BadOperator(DiracforgeError):
    """An operator failed one of its construction-time invariants."""


def _scalar_of(mat):
    """The scalar when mat is exactly a real multiple of the identity."""
    z = mat.scalar_of_identity()
    if z is None or z[1]:
        return None
    return z[0]


class DiracOperator:
    """matrix on V (x) S; grading (or None) anticommutes with it; form is
    the positive Hermitian form it is self-adjoint for; meta records what
    was built."""

    def __init__(self, matrix, grading, form, meta):
        self.matrix = matrix
        self.grading = grading
        self.form = form
        self.meta = meta
        if not matrix.is_selfadjoint_wrt(form):
            raise BadOperator("operator is not self-adjoint for the form")
        if grading is not None:
            anti = grading * matrix + matrix * grading
            if anti != ExactMatrix.zeros(matrix.nrows):
                raise BadOperator("operator is not odd for the grading")

    def square(self):
        return self.matrix * self.matrix


def cubicDirac(rep, cl, q):
    """D^q = sum (pi(X_i) (x) c(X_i) + q (x) ad(X_i) c(X_i)), contracted
    through the dual frame of rep's gram; q = 1/3 is the cubic operator.
    meta["spin"] keeps the spin map ads[a] = ad(X_a) on the spinors."""
    frame = rep.frame
    if cl.dim != frame.dim:
        raise DimensionMismatch("Clifford module has %d directions, frame %d"
                                % (cl.dim, frame.dim))
    if cl.gram != frame.gram:
        raise DimensionMismatch("Clifford gram differs from the frame gram")
    q = rat(q)
    ads = _frame_spin(frame, cl)
    idv = ExactMatrix.identity(rep.dimension)
    total = _assemble(rep.pi, cl, frame.gramInverse, ads, q, idv)
    grading = None
    if cl.grading is not None:
        grading = idv.kron(cl.grading)
    form = rep.form.kron(cl.form)
    meta = {"lambda": rep.lam, "q": q, "relative": False, "spin": ads}
    return DiracOperator(total, grading, form, meta)


def _frame_spin(frame, cl):
    """spinRepresentation(frame, cl), kept on the frame with the module it
    was built for: every lambda of a sweep shares the frame and its
    module, and reads one spin map."""
    kept = getattr(frame, "_spin", None)
    if kept is None or kept[0] is not cl:
        kept = frame._spin = (cl, spinRepresentation(frame, cl))
    return kept[1]


def _assemble(pi, cl, ginv, ads, q, idv):
    """sum_a pi_a (x) c^a + idv (x) q sum_a ad_a c^a, with the dual gammas
    c^a = sum_b (G^-1)_{ab} c(X_b) formed once; the spin part is summed in
    S and tensored once, and the terms on V (x) S are summed by one
    combination."""
    size = cl.size
    duals = [combination([x for x, _ in ginv.row(a)], cl.gamma, size)
             for a in range(len(pi))]
    spin = combination([q] * len(ads), [ad * c for ad, c in zip(ads, duals)],
                       size)
    terms = [p.kron(c) for p, c in zip(pi, duals)]
    terms.append(idv.kron(spin))
    return combination([1] * len(terms), terms, idv.nrows * size)


def piCasimir(rep):
    """-sum (G^-1)_{ab} pi(X_a) pi(X_b); scalar <lam, lam + 2 rho> on an
    irreducible."""
    return -contract(rep.pi, rep.pi, rep.frame.gramInverse, rep.dimension)


def _adjoint_trace_24th(rs):
    """(sum over simple factors of dim(factor) * <theta, theta + 2 rho>,
    divided by 24, and |rho|^2), computed once per system and kept on it;
    the strange formula makes the two equal."""
    kept = getattr(rs, "_trace_24th", None)
    if kept is not None:
        return kept
    total = ZERO
    rho2 = rs.innerProduct(rs.rho, rs.rho)
    # group positive roots by factor via their support
    owner = []
    for bi, (fam, rank) in enumerate(rs.factors):
        owner.extend([bi] * rank)
    by_factor = {}
    for beta in rs.positiveRoots:
        support = [p for p, c in enumerate(beta) if c]
        by_factor.setdefault(owner[support[0]], []).append(beta)
    for bi, roots in by_factor.items():
        theta = max(roots, key=lambda b: rs.innerProduct(b, rs.rho))
        cas = rs.innerProduct(theta, theta) \
            + 2 * rs.innerProduct(theta, rs.rho)
        dim_f = rs.factors[bi][1] + 2 * len(roots)
        total += rat(dim_f) * cas
    kept = rs._trace_24th = (rat(total, 24), rho2)
    return kept


def _tensor_diagonal_constant(rs, lam, scalar, rho2):
    """scalar minus the Casimir |nu + rho|^2 - |rho|^2 that every summand
    nu of V_lam (x) V_rho shares, or None when they do not share one: the
    tensor-diagonal Casimir acts on V (x) S as on V_lam (x) V_rho.  The
    summands are the straightening of {lam + rho + v : m_rho(v)}, with
    ch V_rho from Freudenthal in memory (Brauer-Klimyk)."""
    rho = rs.rho
    weights = _freudenthal(rs, rho)
    top = tuple(map(add, lam, rho))
    dec = _straighten(rs, {tuple(map(add, top, v)): m
                           for v, m in weights.items()})
    _check_summands(rs, dec, _dimension(rs, lam) * sum(weights.values()),
                    "tensor product")
    norms = {rs.innerProduct(s, s) for s in (tuple(map(add, nu, rho))
                                             for nu in dec)}
    return scalar - (norms.pop() - rho2) if len(norms) == 1 else None


def verifyKostantIdentity(rep, cl):
    """Exact square identity for the full cubic operator.

    Hard-fails (NotScalar) unless D^2 is an exact scalar; reports the
    scalar against |lam + rho|^2 and audits the affine constant under the
    pi-only and tensor-diagonal Casimir readings, both read off the scalar
    and characters: no matrix is built after the scalar test."""
    rs = rep.system
    scalar = _scalar_of(cubicDirac(rep, cl, rat(1, 3)).square())
    if scalar is None:
        raise NotScalar("D^2 is not scalar for lambda = (%s)"
                        % weightString(rep.lam))
    shifted = tuple(l + r for l, r in zip(rep.lam, rs.rho))
    expected = rs.innerProduct(shifted, shifted)
    trace_24th, rho2 = _adjoint_trace_24th(rs)
    # V is irreducible (_verify_rep checked it against Freudenthal), so
    # pi's Casimir is |lam + rho|^2 - |rho|^2
    pi_const = scalar - (expected - rho2)
    diag_const = _tensor_diagonal_constant(rs, rep.lam, scalar, rho2)
    matched = []
    if pi_const == rho2:
        matched.append("rhoNormSquared")
    if pi_const == trace_24th:
        matched.append("twelfthAdjointTrace")
    return {
        "isScalarPerIsotypic": True,
        "scalars": {weightString(rep.lam): rat_str(scalar)},
        "scalar": scalar,
        "expected": expected,
        "scalarMatches": scalar == expected,
        "readings": {
            "piOnly": rat_str(pi_const),
            "tensorDiagonal": rat_str(diag_const)
                              if diag_const is not None else "failure",
        },
        "candidates": {
            "rhoNormSquared": rat_str(rho2),
            "twelfthAdjointTrace": rat_str(trace_24th),
        },
        "affineConstant": rat_str(pi_const),
        "matchedCandidates": matched,
    }


# ------------------------------------------------------------ relative case

def _pair_split(pair):
    """PairSpinors(pair), built once per pair object and kept on it: the
    split, S_p, its spin maps and the spinor weights depend only on the
    pair, while a sweep or kernelIndex needs them for every lambda."""
    spinors = getattr(pair, "_spinors", None)
    if spinors is None:
        spinors = pair._spinors = PairSpinors(pair)
    return spinors


class RelativePieces:
    """Everything the relative operator and its checks share for one
    lambda: the rep, the pair's spinors and the H-action on V (x) S_p."""

    def __init__(self, pair, lam):
        self.pair = pair
        self.rep = buildLieRep(pair.g, lam)
        self.spinors = spinors = _pair_split(pair)
        self.s_p = spinors.s_p
        size = self.rep.dimension * self.s_p.size
        if size > RELATIVE_SIZE_LIMIT:
            raise TooLarge("V (x) S_p would be %d x %d; limit %d"
                           % (size, size, RELATIVE_SIZE_LIMIT))
        self.idv = ExactMatrix.identity(self.rep.dimension)
        ids = ExactMatrix.identity(self.s_p.size)
        # pi(Y) (x) 1 + 1 (x) spin(Y) for each local h direction Y
        self.hActions = tuple(
            self.rep.pi[a].kron(ids) + self.idv.kron(spin)
            for a, spin in zip(spinors.hIndices, spinors.hSpin))

    def tensorHWeights(self):
        """H-weight of each tensor basis vector, row-major V x S_p."""
        out = []
        for wv in self.rep.weights:
            base = self.pair.weightToH(wv)
            out.extend(tuple(a + b for a, b in zip(base, spin_h))
                       for spin_h in self.spinors.hWeights)
        return out

    def raisingOps(self):
        """One raising operator per kept root pair of h."""
        ops = []
        rank = self.pair.g.rank
        half = rat(1, 2)
        for local, a in enumerate(self.spinors.hIndices):
            if a < rank or self.spinors.frame.names[a][0] != "A":
                continue
            ea, eb = self.hActions[local], self.hActions[local + 1]
            ops.append(ea.scale(half) + eb.scale((ZERO, -half)))
        return ops


def relativeCubicDirac(pair, lam, pieces=None):
    """D over the p block only: sum (pi (x) c + 1 (x) (1/3) ad^p c),
    dual contracted; graded by the p spinor grading; H-equivariance is
    checked exactly."""
    rp = pieces if pieces is not None else RelativePieces(pair, lam)
    rep, s_p, spinors = rp.rep, rp.s_p, rp.spinors
    n = rep.dimension * s_p.size
    pi = [rep.pi[a] for a in spinors.pIndices]
    total = _assemble(pi, s_p, spinors.pGramInverse, spinors.pSpin,
                      rat(1, 3), rp.idv)
    grading = rp.idv.kron(s_p.grading)
    form = rep.form.kron(s_p.form)
    meta = {"lambda": rep.lam, "q": rat(1, 3), "relative": True}
    op = DiracOperator(total, grading, form, meta)
    zero = ExactMatrix.zeros(n)
    for action in rp.hActions:
        if commutator(total, action) != zero:
            raise BadOperator("relative operator is not H-equivariant")
    return op


def _joint_kernel(mats, idx, n):
    """The vectors supported on the coordinates idx that every n x n
    matrix in mats kills, as the columns of an n x d matrix."""
    sel = ExactMatrix.zeros(n, len(idx))
    for c, i in enumerate(idx):
        sel.put(i, c, 1)
    return sel * ExactMatrix.vstack([m * sel for m in mats],
                                    len(idx)).nullspace()


def spectralCheckRelative(pair, lam):
    """Blockwise exact check: D^2 acts on each H-isotypic W_mu as
    |lam + rho_G|^2 - |mu + rho_H|^2.  Returns the block report and the
    kernel candidates."""
    rp = RelativePieces(pair, lam)
    op = relativeCubicDirac(pair, lam, rp)
    sq = op.square()
    n = sq.nrows
    g, h = pair.g, pair.h

    hweights = rp.tensorHWeights()
    entries = {}
    for w in hweights:
        entries[w] = entries.get(w, 0) + 1
    isotypics = decomposeCharacter(FormalCharacter(h, entries)).entries

    shifted = tuple(l + r for l, r in zip(rp.rep.lam, g.rho))
    lam_norm = g.innerProduct(shifted, shifted)
    raising = rp.raisingOps()

    blocks = []
    candidates = []
    total_dim = 0
    for mu in sorted(isotypics):
        mult = isotypics[mu]
        total_dim += mult * weylDimension(h, mu)
        mu_shift = tuple(m + r for m, r in zip(mu, h.rho))
        expect = lam_norm - h.innerProduct(mu_shift, mu_shift)
        idx = [i for i, w in enumerate(hweights) if w == mu]
        hw = _joint_kernel(raising, idx, n)
        if hw.ncols != mult:
            raise SpectralMismatch(
                "isotypic multiplicity %d but %d highest weight vectors"
                % (mult, hw.ncols))
        if sq * hw != hw.scale(expect):
            raise SpectralMismatch(
                "D^2 is not the predicted scalar on mu = (%s)"
                % weightString(mu))
        blocks.append({"mu": mu, "multiplicity": mult,
                       "scalar": expect, "match": True})
        if expect == 0:
            candidates.append(mu)
    if total_dim != n:
        raise SpectralMismatch("isotypic dimensions do not add up")
    return {"lambda": rp.rep.lam, "blocks": blocks,
            "kernelCandidates": candidates}


def _coordinate_ball(rs, norm_target):
    """Dominant integral lam with |lam + rho|^2 = norm_target, via the
    Cauchy-Schwarz coordinate bound |v_i| <= sqrt(target (G^-1)_ii)."""
    rank = rs.rank
    ginv = ExactMatrix.from_rows(rs.gram).inverse()
    out = []
    if norm_target < 0:
        return out
    bounds = []
    for i in range(rank):
        cap = norm_target * ginv.get(i, i)[0]
        b = 0
        while b * b <= cap:
            b += 1
        bounds.append(b)
    axes = [range(-b, b + 1) for b in bounds]
    for v in itertools.product(*axes):
        if rs.innerProduct(v, v) != norm_target:
            continue
        lam = tuple(c - r for c, r in zip(v, rs.rho))
        if rs.isDominant(lam):
            out.append(lam)
    return sorted(out)


def kernelIndex(pair, w_character):
    """Index of the Dirac operator family against a finite H-character:
    for each candidate lambda on the norm sphere of each summand, the
    graded kernel's H-multiplicities are counted exactly.  Returns a
    FormalCharacter over G in the irreducible basis."""
    h = pair.h
    if isinstance(w_character, FormalCharacter):
        summands = dict(decomposeCharacter(w_character).entries)
    else:
        summands = {h.weight(k): int(v) for k, v in dict(w_character).items()}
    result = {}
    for mu, mult in summands.items():
        mu = h.weight(mu)
        mu_shift = tuple(m + r for m, r in zip(mu, h.rho))
        target = h.innerProduct(mu_shift, mu_shift)
        for lam in _coordinate_ball(pair.g, target):
            plus, minus = _graded_kernel_multiplicity(pair, lam, mu)
            coef = mult * (plus - minus)
            if coef:
                result[lam] = result.get(lam, 0) + coef
    result = {k: v for k, v in result.items() if v}
    return FormalCharacter(pair.g, result, basis=FormalCharacter.IRREDUCIBLE)


def _graded_kernel_multiplicity(pair, lam, mu):
    """Multiplicity of the H-irreducible mu in ker D^+ and ker D^-."""
    rp = RelativePieces(pair, lam)
    op = relativeCubicDirac(pair, lam, rp)
    n = op.matrix.nrows
    hweights = rp.tensorHWeights()
    raising = rp.raisingOps()
    out = []
    for sign in (1, -1):
        idx = [i for i, w in enumerate(hweights)
               if w == mu and op.grading.get(i, i)[0] == sign]
        out.append(_joint_kernel([op.matrix] + raising, idx, n).ncols)
    return out[0], out[1]
