"""Helpers that only the tests use, kept out of the package.

- ``buildClifford`` is the Euclidean module (identity gram) and
  ``commutantDimension`` the dimension of its commutant;
- ``RawStructure`` carries a bare (gram, structure constants) pair into
  ``spinRepresentation`` when no matrix frame is involved;
- ``qSweepReport`` says whether (D^q)^2 is scalar for several q;
- ``isWeylInvariant`` compares a character along the Weyl orbits of its
  support;
- ``fractionPolarizedExpand`` is the polarized expansion on exact
  rationals, one ``innerProduct`` per term: the oracle for the integer
  kernel in ``polarized.polarizedExpand``;
- ``fractionDecompose`` is the highest-weight peel on ``Fraction`` weights,
  one ``innerProduct`` per dominant support weight per step: the oracle
  for the straightening (``characters._straighten``) behind
  ``decomposeCharacter``, ``tensorDecompose`` and ``restrictCharacter``,
  in answer, order, error type and message;
- ``tensorDiagonalCasimir`` is -sum (G^-1)_{ab} delta_a delta_b on V (x)
  S, delta_a = pi_a (x) 1 + 1 (x) ad_a, as matrices: the oracle for the
  tensor-diagonal reading that ``dirac.verifyKostantIdentity`` takes from
  characters, as ``dirac.piCasimir`` is for the pi-only one;
- ``FRAME_CASES`` are the frame modules the Clifford and spin-map tests
  run on, with their size, doubling and grading;
- ``refSpin`` is the spin map as the double sum over (G^-1)_{bc}, one
  term at a time, on bracket rows from ``pBrackets``: the brackets of
  frame directions with p from ``CompactFrame.bracketCoefficients``, cut
  to p.  ``pairSpins`` joins them into the spin action on S_p of every
  frame direction, and ``spinorWeights`` reads the G-weights of the S_p
  basis off the Cartan ones: the oracles that ``clifford.PairSpinors`` and
  ``spinRepresentation`` on a block must reproduce;
- ``fractionRootData`` builds a system's roots, gram and rho on
  ``Fraction`` weights, one ``ExactMatrix`` inverse per simple factor and
  one root-coefficient product per root: the oracle for the int core of
  ``liecore.RootSystem``;
- ``ALL_LABELS`` are the systems every root-data test runs on;
- ``intWhenIntegral`` is the coordinate rule of the weight layer: an int
  when integral, a ``Fraction`` otherwise;
- ``boxDominantBelow`` (a scan of the box of root coefficients, each
  bounded through the ``fractionRootData`` expansion),
  ``seenSetOrbit`` (every reflection of every weight, deduplicated by a
  set) and ``reflectingFreudenthal`` (each root-string step reflected
  into the dominant chamber) are the oracles for the root-subtraction
  walk ``characters._dominant_below``, the orbit walk
  ``RootSystem.dominantOrbit`` and the fused ``characters._freudenthal``;
  ``oracleWeights`` joins them into {weight: multiplicity};
- ``oldCharReport`` formats a ``char`` report and its file from sorted
  weight tuples, and ``oldCacheDocument`` the two-line cache file from the
  weights with its own ``hashlib`` and ``json`` calls: the route that
  ``cmd_char``, the kernel and ``cache.store`` must match byte for byte.
"""

import hashlib
import itertools
import json
from fractions import Fraction

from diracforge.characters import FormalCharacter, irreducibleCharacter
from diracforge.cli import CLIFFORD_SIGN, NORMALIZATION, POLARIZATION_RULE
from diracforge.clifford import buildCliffordFrame
from diracforge.dirac import _scalar_of, cubicDirac
from diracforge.errors import (BadStructureConstants, DiracforgeError,
                               NonGenericPolarization)
from diracforge.exactmat import ExactMatrix, combination, contract
from diracforge.liecore import _cartan_block, _half_lengths, weightString
from diracforge.rationals import ZERO, rat, rat_str

ALL_LABELS = ["A1", "A2", "A3", "A4", "B2", "C2", "D4", "T1", "T4",
              "A1xT1", "A1xA1", "A2xT2"]


def intWhenIntegral(weight):
    """Whether every coordinate is an int when integral and a Fraction
    otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in weight)


def buildClifford(n):
    """Euclidean module: n gammas of size 2^floor(n/2), identity form."""
    return buildCliffordFrame([[rat(1) if i == j else ZERO for j in range(n)]
                               for i in range(n)])


def commutantDimension(cl):
    """Dimension of {X : X gamma_a = gamma_a X for all a}, solved exactly."""
    n = cl.size
    ident = ExactMatrix.identity(n)
    stacked = ExactMatrix.vstack([g.kron(ident) - ident.kron(g.transpose())
                                  for g in cl.gamma], n * n)
    return stacked.nullspace().ncols


FRAME_CASES = [
    # label, size, doubled, graded
    ("A1", 4, True, False),
    ("A2", 16, False, False),
    ("A1xA1", 8, False, True),
    ("A1xT1", 4, False, False),
    ("A1xT2", 8, True, False),
    ("A1xT3", 8, False, False),
    ("A2xT2", 32, False, False),
    ("A1xA1xT1", 8, False, False),
    ("A1xA2", 64, True, False),
    ("A1xA1xA1", 32, True, False),
    ("T2", 2, False, True),
    ("T3", 2, False, False),
    # three unpaired norm classes (1, 2 and 6): a mixed block and an
    # auxiliary one
    ("A2xT1", 32, True, False),
    # classes 1 and 6 with no conic point found: the square norm takes
    # the parity slot and the other an auxiliary block
    ("A2xA1xT1", 64, True, False),
]


def tensorDiagonalCasimir(rep, ads, cas_v, size):
    """-sum (G^-1)_{ab} delta_a delta_b with delta_a = pi_a (x) 1 + 1 (x)
    ad_a, read expanded with G^-1 symmetric as Cas_V (x) 1 - 1 (x)
    sum (G^-1)_{ab} ad_a ad_b - 2 sum_a pi_a (x) ad^a, where ad^a =
    sum_b (G^-1)_{ab} ad_b; cas_v = piCasimir(rep) and the spin map ads
    acts on spinors of dimension size."""
    ginv = rep.frame.gramInverse
    idv = ExactMatrix.identity(rep.dimension)
    cross = ExactMatrix.zeros(rep.dimension * size)
    for a, p in enumerate(rep.pi):
        row = [x for x, _ in ginv.row(a)]
        cross = cross + p.kron(combination(row, ads, size))
    return cas_v.kron(ExactMatrix.identity(size)) \
        - idv.kron(contract(ads, ads, ginv, size)) - cross.scale(2)


def refCliffordOf(coef, gamma, size):
    out = ExactMatrix.zeros(size)
    for a, c in enumerate(coef):
        if c:
            out = out + gamma[a].scale(c)
    return out


def refSpin(brackets_of, gamma, ginv, size):
    """ad_a = (1/4) sum_{b,c} (G^-1)_{bc} c(X_b) c([X_a, X_c])."""
    d = len(gamma)
    ads = []
    for a in range(len(brackets_of)):
        acc = ExactMatrix.zeros(size)
        for c in range(d):
            bracket = brackets_of[a][c]
            if not any(bracket):
                continue
            cbr = refCliffordOf(bracket, gamma, size)
            for b in range(d):
                w = ginv.get(b, c)[0]
                if w:
                    acc = acc + (gamma[b] * cbr).scale(w * rat(1, 4))
        ads.append(acc)
    return ads


def pBrackets(frame, rows, p):
    """For each frame direction a in rows, the brackets [X_a, X_c] for c
    in p, cut to their coefficients on p."""
    return [[tuple(frame.bracketCoefficients(a, c)[k] for k in p)
             for c in p] for a in rows]


def pairSpins(spinors):
    """The spin action on S_p of every frame direction, by refSpin over
    the inverse of the p block of the frame gram."""
    frame, p, s_p = spinors.frame, spinors.pIndices, spinors.s_p
    ginv = ExactMatrix.from_rows([[frame.gram[a][b] for b in p]
                                  for a in p]).inverse()
    return refSpin(pBrackets(frame, range(frame.dim), p), s_p.gamma, ginv,
                   s_p.size)


def spinorWeights(spinors):
    """G-weights of the S_p basis vectors from the pairSpins actions of
    the Cartan directions, each checked to be diagonal."""
    s_p = spinors.s_p
    actions = pairSpins(spinors)[:spinors.pair.g.rank]
    for m in actions:
        assert m == ExactMatrix.diag([m.get(v, v) for v in range(s_p.size)])
    weights = []
    for v in range(s_p.size):
        assert all(m.get(v, v)[0] == 0 for m in actions)
        weights.append(tuple(m.get(v, v)[1] for m in actions))
    return tuple(weights)


class RawStructure:
    """Bare (gram, structure constants) carrier for spinRepresentation
    when no matrix frame is involved (toy and abelian cases)."""

    def __init__(self, gram, f):
        self.dim = len(gram)
        self.gram = tuple(tuple(rat(c) for c in row) for row in gram)
        self._f = tuple(tuple(tuple(rat(c) for c in col) for col in row)
                        for row in f)
        self.gramInverse = ExactMatrix.from_rows(self.gram).inverse()
        if self.gramInverse is None:
            raise BadStructureConstants("gram is singular")

    def bracketCoefficients(self, a, b):
        return self._f[a][b]


def qSweepReport(rep, cl, qs=(rat(1, 3), rat(1, 2), rat(0), rat(1))):
    """Whether (D^q)^2 is scalar for each q; scalar only at 1/3 for
    nonabelian systems at regular weights."""
    out = {}
    for q in qs:
        s = _scalar_of(cubicDirac(rep, cl, q).square())
        out[rat_str(rat(q))] = rat_str(s) if s is not None else "non-scalar"
    return out


def isWeylInvariant(chi):
    """Whether every weight of chi's support carries the multiplicity of
    its whole Weyl orbit."""
    for w, m in chi.entries.items():
        for v in chi.system.weylOrbit(w):
            if chi.entries.get(v, 0) != m:
                return False
    return True


def fractionPolarizedExpand(system, fiberWeights, alpha, window):
    """(entries, offset) of the alpha-polarized expansion of
    Pi (1 - e^{-w_i})^{-1} up to pairing window, computed factor by factor
    on Fraction weights with every pairing taken by system.innerProduct.
    Raises NonGenericPolarization on a fiber weight pairing to zero."""
    alpha = system.weight(alpha)
    factors = []
    total_min = ZERO
    for w in fiberWeights:
        w = system.weight(w)
        d = system.innerProduct(w, alpha)
        if d == 0:
            raise NonGenericPolarization("fiber weight pairs to zero")
        if d < 0:
            # sum_{k>=0} e^{-kw}: steps of -w, each raising the pairing by -d
            factors.append((tuple(-c for c in w), -d, 1, 0))
        else:
            # flipped: -sum_{k>=1} e^{kw}
            factors.append((w, d, -1, 1))
            total_min += d
    window = rat(window)
    mins = [step if k0 else ZERO for _, step, _, k0 in factors]
    entries = {system.zeroWeight(): 1}
    for idx, (wstep, step, sign, k0) in enumerate(factors):
        budget = window - sum(mins[idx + 1:], ZERO)
        new = {}
        for u, m in entries.items():
            pu = system.innerProduct(u, alpha)
            k = k0
            while pu + k * step <= budget:
                v = tuple(a + k * b for a, b in zip(u, wstep))
                c = new.get(v, 0) + m * sign
                if c:
                    new[v] = c
                else:
                    new.pop(v, None)
                k += 1
        entries = new
    return entries, -total_min


def fractionDecompose(chi):
    """{lam: multiplicity} of a weight-basis character by the greedy peel on
    Fraction weights: the dominant support weight with the greatest
    (|w + rho|^2, w) is taken each step and its irreducible subtracted."""
    rs = chi.system
    rest = dict(chi.entries)
    out = {}
    while rest:
        best = None
        best_key = None
        for w in rest:
            if not rs.isDominant(w):
                continue
            w_rho = tuple(a + b for a, b in zip(w, rs.rho))
            key = (rs.innerProduct(w_rho, w_rho), w)
            if best is None or key > best_key:
                best, best_key = w, key
        if best is None:
            raise DiracforgeError("no dominant weight left to peel; "
                                  "input is not a virtual character")
        m = rest[best]
        for w, pm in irreducibleCharacter(rs, best).entries.items():
            nv = rest.get(w, 0) - m * pm
            if nv:
                rest[w] = nv
            else:
                rest.pop(w, None)
        out[best] = out.get(best, 0) + m
    return out


def fractionRootData(factors, gram=None):
    """(simpleRoots, positiveRoots, gram, rho, coefficients) of the system
    with these factors, on Fraction weights: the Cartan rows as rational
    weights, the gram d_i (A^-1)_ji solved block by block (gram, when
    given, replaces it), the simple roots closed under Fraction
    reflections, a root kept as positive when its ExactMatrix expansion
    over the simple roots is >= 0, and rho half their sum.  coefficients(v)
    expands v over the simple roots, None when v is outside their span."""
    rank = sum(r for _, r in factors)
    positions, simple = [], []
    g = [[ZERO] * rank for _ in range(rank)]
    offset = 0
    for f, r in factors:
        if f == "Torus":
            for i in range(offset, offset + r):
                g[i][i] = rat(1)
        else:
            positions.extend(range(offset, offset + r))
            block = _cartan_block(f, r)
            for row in block:
                coords = [ZERO] * rank
                for j, c in enumerate(row):
                    coords[offset + j] = rat(c)
                simple.append(tuple(coords))
            ainv = ExactMatrix.from_rows(block).inverse()
            d = _half_lengths(f, r)
            for i in range(r):
                for j in range(r):
                    g[offset + i][offset + j] = d[i] * ainv.get(j, i)[0]
        offset += r
    if gram is not None:
        g = [[rat(x) for x in row] for row in gram]
    n = len(positions)
    coef = ExactMatrix.from_rows(
        [[simple[j][p] for j in range(n)] for p in positions]
    ).inverse() if n else None

    def coefficients(v):
        if not n:
            return None if any(v) else ()
        if any(v[i] for i in range(rank) if i not in positions):
            return None
        c = coef * ExactMatrix.from_rows([[v[p]] for p in positions])
        return tuple(c.get(i, 0)[0] for i in range(n))

    roots = set(simple)
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for p, alpha in zip(positions, simple):
                w = tuple(x - v[p] * a for x, a in zip(v, alpha))
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    positive = tuple(sorted(v for v in roots
                            if all(c >= 0 for c in coefficients(v))))
    rho = tuple(sum((a[i] for a in positive), ZERO) / 2 for i in range(rank))
    return simple, positive, g, rho, coefficients


def boxDominantBelow(rs, lam):
    """[(height, mu)] for each dominant mu with lam - mu in the nonnegative-
    integer root lattice, found by scanning every vector of root
    coefficients up to the bound that dominance sets on each."""
    if not rs.simple_positions:
        return [(0, lam)]
    simple_set = set(rs.simple_positions)
    proj = tuple(lam[i] if i in simple_set else 0 for i in range(rs.rank))
    # the inverse-transpose Cartan has nonnegative entries, so dominance of mu
    # pins each root coefficient of lam - mu below the coefficient of proj
    *_, coefficients = fractionRootData(rs.factors)
    bounds = [max(int(c), 0) for c in coefficients(proj)]
    out = []
    for cvec in itertools.product(*(range(b + 1) for b in bounds)):
        mu = list(lam)
        for c, (_, alpha) in zip(cvec, rs.reflections):
            if c:
                for i, a in enumerate(alpha):
                    mu[i] -= c * a
        if all(mu[p] >= 0 for p, _ in rs.reflections):
            out.append((sum(cvec), tuple(mu)))
    return out


def seenSetOrbit(rs, v):
    """The Weyl orbit of v as a set: every simple reflection of every
    weight found, kept when the set has not seen it."""
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for p, alpha in rs.reflections:
                c = u[p]
                if c:
                    w = tuple(x - c * a for x, a in zip(u, alpha))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return seen


def reflectingFreudenthal(rs, lam):
    """{dominant mu: multiplicity in V_lam} by the Freudenthal recursion
    over boxDominantBelow in height order, each root-string weight
    reflected into the dominant chamber to read its multiplicity."""
    gram = rs.intGram

    def pairing(u, v):
        return sum(a * g * b for a, row in zip(u, gram) for g, b in zip(row, v))

    def shifted_norm(mu):
        mu_rho = tuple(a + b for a, b in zip(mu, rs.rho))
        return pairing(mu_rho, mu_rho)

    def dominant(v):
        while True:
            for p, alpha in rs.reflections:
                c = v[p]
                if c < 0:
                    v = tuple(x - c * a for x, a in zip(v, alpha))
                    break
            else:
                return v

    target = shifted_norm(lam)
    mult = {lam: 1}
    for _, mu in sorted(boxDominantBelow(rs, lam)):
        if mu == lam:
            continue
        acc = 0
        for alpha in rs.positiveRoots:
            k = 1
            while True:
                v = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mult.get(dominant(v), 0)
                if m == 0:
                    break
                acc += 2 * m * pairing(v, alpha)
                k += 1
        val, rem = divmod(acc, target - shifted_norm(mu))
        assert rem == 0 and val >= 0
        if val:
            mult[mu] = val
    return mult


def oracleWeights(rs, lam):
    """{weight: multiplicity} of V_lam from reflectingFreudenthal, each
    dominant multiplicity copied over its seenSetOrbit."""
    return {v: m for mu, m in reflectingFreudenthal(rs, lam).items()
            for v in seenSetOrbit(rs, mu)}


def oldCharReport(rs, lam, weights, fmt="json", out=None):
    """(stdout, file lines) of ``char`` on {int weight: multiplicity}: the
    weights sorted as int tuples, each formatted for both the payload and
    the lines, the JSON document sorted by key."""
    coords = ",".join(["%d"] * rs.rank)
    keyed = [(coords % u, weights[u]) for u in sorted(weights)]
    lines = ["%s %s" % (rs.label, FormalCharacter.WEIGHT)]
    lines.extend("%s %d" % kv for kv in keyed)
    if fmt == "text":
        return "\n".join(lines) + "\n", lines
    doc = {"subcommand": "char", "normalization": NORMALIZATION,
           "cliffordSign": CLIFFORD_SIGN,
           "polarizationRule": POLARIZATION_RULE,
           "label": rs.label, "weight": weightString(lam),
           "dimension": sum(weights.values()), "entries": dict(keyed)}
    if out is not None:
        doc["out"] = out
    return json.dumps(doc, sort_keys=True, indent=2) + "\n", lines


def _canonicalLine(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def oldCacheDocument(rs, lam, weights):
    """The cache file text of V_lam, built apart from ``cache``: a header
    line (format 2, lambda, the SHA-256 of the body line and the system
    key, the label and a gram fingerprint) over the body line, the entries
    keyed with str per coordinate, both canonical JSON."""
    body = _canonicalLine({",".join(map(str, w)): m
                           for w, m in weights.items()})
    gram = ";".join(",".join(map(rat_str, row)) for row in rs.gram)
    fingerprint = hashlib.sha256(gram.encode()).hexdigest()[:10]
    return _canonicalLine({
        "format": 2, "lambda": weightString(lam),
        "sha256": hashlib.sha256(body.encode()).hexdigest(),
        "system": "%s-%s" % (rs.label, fingerprint)}) + body
