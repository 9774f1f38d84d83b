"""Desk-scale [Q,R]=0 harness: toric circle reductions and coadjoint orbits.

A toric model is a Delzant polytope given by half-spaces.  Quantization is
lattice-point enumeration; the independent global oracle is the vertex
localization sum assembled from polarized expansions.  For a circle
direction the character splits into one piece per fixed component of the
circle action, each strictly polarized away from the reduction level, plus
a bilateral piece around the level itself; the reduction claim is checked
coefficient by coefficient against the slice lattice count.

Fixed faces are supported when their normal data is constant along the
face (a product neighbourhood).  A twisted normal bundle is refused rather
than approximated; the supported models never need one for the directions
exercised here.
"""

from itertools import combinations, product as cartesian
from math import ceil, floor, gcd, lcm
from operator import mul

from .characters import (ConeSeries, FormalCharacter, _lattice_coords,
                         characterToSeries, dualWeight, sumSeries,
                         tensorDecompose)
from .errors import (ConventionMismatch, DiracforgeError, NonGenericDirection,
                     NotDelzant, NotIntegral, NotPrequantized, QRViolation,
                     SingularShift, UnsupportedType, VerificationError)
from .exactmat import ExactMatrix
from .induction import diracInduct
from .liecore import equalRankPair, systemFromLabel, weightString
from .polarized import bundleIndex, polarizedExpand
from .rationals import coord, is_integer, rat, rat_from_str, rat_str


def _dot(a, b):
    return sum(map(mul, a, b))


def _integral_direction(xi):
    """xi as a tuple of ints; a fractional coordinate is rejected, never
    truncated."""
    for i, x in enumerate(xi):
        if not is_integer(rat(x)):
            raise NotIntegral("circle direction coordinate %d is %s, not an "
                              "integer" % (i + 1, rat_str(rat(x))))
    return tuple(int(x) for x in xi)


def _primitive(vec):
    """Scale a nonzero rational vector to a primitive integer vector,
    keeping its direction."""
    scale = lcm(*(rat(c).denominator for c in vec))
    ints = [int(rat(c) * scale) for c in vec]
    g = gcd(*ints)
    if g == 0:
        raise DiracforgeError("zero vector has no primitive form")
    return tuple(c // g for c in ints)


class _Vertex:
    __slots__ = ("point", "edges", "active")

    def __init__(self, point, edges, active):
        self.point = point      # rational coordinates
        self.edges = edges      # primitive integer directions into the polytope
        self.active = active    # indices of the facets meeting here


class ToricModel:
    """Delzant polytope from half-spaces <x, normal_j> >= -offset_j.

    Construction derives the vertex/edge data and validates boundedness,
    full dimension, simplicity, and unimodularity; a model that exists is
    a model that passed.  dimension is only needed for the empty list (the
    0-dimensional point model)."""

    def __init__(self, halfSpaces, dimension=None, label=None):
        if dimension is not None and (type(dimension) is not int
                                      or dimension < 0):
            raise DiracforgeError("dimension %r is not a non-negative "
                                  "integer" % (dimension,))
        spaces = []
        for idx, (normal, offset) in enumerate(halfSpaces):
            # a coordinate is never truncated: 1.5 or true is refused
            if not isinstance(normal, (list, tuple)) \
                    or any(type(c) is not int for c in normal):
                raise DiracforgeError("halfspace %d: normal %r is not a "
                                      "list of integers" % (idx, normal))
            normal = tuple(normal)
            if dimension is None:
                dimension = len(normal)
            if len(normal) != dimension:
                raise DiracforgeError(
                    "halfspace %d: normal length %d, expected %d"
                    % (idx, len(normal), dimension))
            if not any(normal):
                raise DiracforgeError("halfspace %d: zero normal" % idx)
            if _primitive(normal) != normal:
                raise DiracforgeError(
                    "halfspace %d: normal (%s) is not primitive"
                    % (idx, weightString(normal)))
            spaces.append((normal, rat(offset)))
        if dimension is None:
            raise DiracforgeError(
                "an empty half-space list needs an explicit dimension")
        self.dimension = dimension
        self.halfSpaces = tuple(spaces)
        self.system = systemFromLabel("T%d" % self.dimension)
        self.label = label if label is not None else \
            "toric-%dd" % self.dimension
        self.vertices = self._derive_vertices()
        self._check_shape()
        self._lattice = None

    # -- geometry ---------------------------------------------------------

    def containsPoint(self, x):
        return all(_dot(x, n) >= -o for n, o in self.halfSpaces)

    def _derive_vertices(self):
        n = self.dimension
        if n == 0:
            return [_Vertex((), [], ())]
        seen = {}
        for subset in combinations(range(len(self.halfSpaces)), n):
            mat = ExactMatrix.from_rows(
                [list(self.halfSpaces[j][0]) for j in subset])
            inv = mat.inverse()
            if inv is None:
                continue
            rhs = ExactMatrix.from_rows([[-self.halfSpaces[j][1]]
                                         for j in subset])
            col = inv * rhs
            point = tuple(coord(col.get(i, 0)[0]) for i in range(n))
            if not self.containsPoint(point):
                continue
            active = tuple(j for j, (nor, off) in enumerate(self.halfSpaces)
                           if _dot(point, nor) == -off)
            if len(active) > n:
                raise NotDelzant(
                    "vertex (%s) lies on %d facets; the polytope is not "
                    "simple" % (weightString(point), len(active)))
            if point in seen:
                continue
            # the normals are a lattice basis exactly when their inverse
            # is integral; its columns are then the primitive edges
            for i in range(n):
                for k in range(n):
                    x = inv.get(i, k)[0]
                    if not is_integer(x):
                        raise NotDelzant(
                            "normals at vertex (%s) are not a lattice basis: "
                            "their inverse has entry %s at (%d, %d)"
                            % (weightString(point), rat_str(x), i + 1, k + 1))
            edges = [tuple(int(inv.get(i, k)[0]) for i in range(n))
                     for k in range(n)]
            seen[point] = _Vertex(point, edges, active)
        return [seen[p] for p in sorted(seen)]

    def _check_shape(self):
        n = self.dimension
        if n == 0:
            return
        if not self.vertices:
            raise NotDelzant("no vertices: empty or unbounded polytope")
        rows = [list(nor) for nor, _ in self.halfSpaces]
        _, pivots = ExactMatrix.from_rows(rows).rref()
        if len(pivots) < n:
            raise NotDelzant("normals do not span; the polytope is unbounded")
        for d in self._recession_candidates():
            if any(d) and all(_dot(d, nor) >= 0 for nor, _ in self.halfSpaces):
                raise NotDelzant(
                    "unbounded along direction (%s)" % weightString(d))
        base = self.vertices[0].point
        diffs = [[v.point[i] - base[i] for i in range(n)]
                 for v in self.vertices[1:]]
        if diffs:
            _, pivots = ExactMatrix.from_rows(diffs).rref()
        if not diffs or len(pivots) < n:
            raise NotDelzant("polytope is not full-dimensional")

    def _recession_candidates(self):
        n = self.dimension
        if n == 1:
            return [(rat(1),), (rat(-1),)]
        out = []
        for subset in combinations(range(len(self.halfSpaces)), n - 1):
            rows = [list(self.halfSpaces[j][0]) for j in subset]
            kern = ExactMatrix.from_rows(rows).nullspace()
            if kern.ncols != 1:
                continue
            d = tuple(kern.get(i, 0)[0] for i in range(n))
            out.append(d)
            out.append(tuple(-c for c in d))
        return out

    # -- lattice ----------------------------------------------------------

    def requirePrequantized(self):
        for idx, (_, off) in enumerate(self.halfSpaces):
            if not is_integer(off):
                raise NotPrequantized(
                    "offset %s of halfspace %d is not integral"
                    % (rat_str(off), idx))

    def latticePoints(self):
        if self._lattice is not None:
            return self._lattice
        n = self.dimension
        # the point model (n = 0) gets the one empty point from cartesian()
        los = [min(v.point[i] for v in self.vertices) for i in range(n)]
        his = [max(v.point[i] for v in self.vertices) for i in range(n)]
        ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(los, his)]
        pts = [p for p in cartesian(*ranges) if self.containsPoint(p)]
        self._lattice = pts
        return pts

    # -- serialization ----------------------------------------------------

    def toDict(self):
        out = {"halfspaces": [{"normal": list(nor), "offset": rat_str(off)}
                              for nor, off in self.halfSpaces]}
        if not self.halfSpaces:
            out["dimension"] = self.dimension
        return out

    @classmethod
    def fromDict(cls, data, label=None):
        if not isinstance(data, dict) or "halfspaces" not in data:
            raise DiracforgeError("toric model needs a 'halfspaces' field")
        if not isinstance(data["halfspaces"], list):
            raise DiracforgeError("'halfspaces' is not a list")
        spaces = []
        for idx, item in enumerate(data["halfspaces"]):
            if not isinstance(item, dict):
                raise DiracforgeError("halfspace %d is not an object" % idx)
            try:
                normal = item["normal"]
                offset = rat_from_str(str(item["offset"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise DiracforgeError(
                    "halfspace %d: %s" % (idx, exc)) from exc
            spaces.append((normal, offset))
        return cls(spaces, dimension=data.get("dimension"), label=label)


def pointModel():
    return ToricModel([], dimension=0, label="point")


def cp1(k):
    if int(k) <= 0:
        raise DiracforgeError("CP1 model needs k >= 1")
    return ToricModel([((1,), 0), ((-1,), int(k))], label="cp1(k=%d)" % k)


def cp2(k):
    if int(k) <= 0:
        raise DiracforgeError("CP2 model needs k >= 1")
    return ToricModel([((1, 0), 0), ((0, 1), 0), ((-1, -1), int(k))],
                      label="cp2(k=%d)" % k)


def hirzebruch(k, b, twist=1):
    """x,y >= 0, y <= b, x + twist*y <= k; needs k > twist*b to stay simple."""
    k, b, twist = int(k), int(b), int(twist)
    if k <= 0 or b <= 0 or twist < 0:
        raise DiracforgeError("hirzebruch model needs k, b >= 1, twist >= 0")
    return ToricModel(
        [((1, 0), 0), ((0, 1), 0), ((0, -1), b), ((-1, -twist), k)],
        label="hirzebruch(k=%d,b=%d,twist=%d)" % (k, b, twist))


# --------------------------------------------------------------- characters

def toricQuantization(model):
    """Sum of e^z over the lattice points of the polytope."""
    model.requirePrequantized()
    return FormalCharacter(model.system,
                           {z: 1 for z in model.latticePoints()})


def fixedPointCharacter(model, xi, window):
    """Vertex localization sum: e^{mu(v)} times the xi-polarized expansion
    of the outward edge weights, per vertex.  Independent of the lattice
    enumeration; agreeing with it is the global oracle identity."""
    model.requirePrequantized()
    sys = model.system
    if model.dimension == 0:
        return ConeSeries(sys, {(): 1}, sys.zeroWeight(), 0, None)
    xi = sys.weight(xi)
    window = rat(window)
    parts = []
    for v in model.vertices:
        for u in v.edges:
            if _dot(u, xi) == 0:
                raise NonGenericDirection(
                    "edge (%s) at vertex (%s) pairs to zero"
                    % (weightString(u), weightString(v.point)))
        outward = [tuple(-c for c in u) for u in v.edges]
        p = sys.innerProduct(sys.weight(v.point), xi)
        parts.append(polarizedExpand(sys, outward, xi, window - p)
                     .shift(v.point))
    return sumSeries(parts)


# ------------------------------------------------------- circle reduction

class KirwanComponent:
    """One piece of the circle decomposition: a critical label (a multiple
    of the direction; zero for the piece around the reduction level) and
    its series.  The zero label belongs to the bilateral piece; for the
    0-dimensional model every label collapses to the empty weight and
    containsZero keeps the geometric meaning on its own."""

    __slots__ = ("alpha", "localSeries", "containsZero")

    def __init__(self, alpha, localSeries, containsZero):
        self.alpha = alpha
        self.localSeries = localSeries
        self.containsZero = bool(containsZero)
        if len(alpha) > 0 and self.containsZero != (not any(alpha)):
            raise DiracforgeError(
                "component label (%s) disagrees with containsZero"
                % weightString(alpha))

    def __repr__(self):
        return "KirwanComponent(alpha=(%s), terms=%d%s)" % (
            weightString(self.alpha), len(self.localSeries.entries),
            ", zero" if self.containsZero else "")


def _adjacency(model):
    """Pairs of vertex indices joined by a polytope edge (sharing all but
    one active facet)."""
    n = model.dimension
    out = []
    for i, j in combinations(range(len(model.vertices)), 2):
        shared = set(model.vertices[i].active) & set(model.vertices[j].active)
        if len(shared) == n - 1:
            out.append((i, j))
    return out


def _fixed_groups(model, xi, vals):
    """Connected components of the xi-circle fixed set, as vertex index
    lists.  An edge is fixed exactly when its endpoints share a moment
    value."""
    parent = list(range(len(model.vertices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in _adjacency(model):
        if vals[i] == vals[j]:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(model.vertices)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: vals[g[0]])


def _face_component_series(model, group, vals, xi, pol, local_window):
    """Series of a fixed face, valid only for a product neighbourhood:
    the outward transverse weights must agree at every vertex of the face."""
    sys = model.system
    val = vals[group[0]]
    fibers = set()
    for i in group:
        v = model.vertices[i]
        transverse = [u for u in v.edges if _dot(u, xi) != 0]
        fibers.add(tuple(sorted(tuple(-c for c in u) for u in transverse)))
    if len(fibers) != 1:
        raise UnsupportedType(
            "fixed face at level %s has a twisted normal bundle; only "
            "product neighbourhoods are supported" % rat_str(val))
    fiber = [list(w) for w in next(iter(fibers))]
    base = FormalCharacter(sys, {z: 1 for z in model.latticePoints()
                                 if _dot(z, xi) == val})
    return bundleIndex(sys, base, fiber, pol, sys.zeroWeight(), local_window,
                       requirePolarized=False)


def kirwanDecomposeCircle(model, xi, c, window):
    """Split the equivariant character along the circle direction xi at
    reduction level c.  Nonzero components are the polarized contributions
    of the fixed components on either side of the level; the zero component
    is global minus the rest, certified two-sided on
    c - window <= <., xi> <= c + window."""
    model.requirePrequantized()
    sys = model.system
    c = rat(c)
    window = rat(window)
    if window <= 0:
        raise DiracforgeError("decomposition window must be positive")

    if model.dimension == 0:
        series = characterToSeries(toricQuantization(model),
                                   sys.zeroWeight())
        return [KirwanComponent(sys.zeroWeight(), series, c == 0)]

    xi = _integral_direction(xi)
    if _primitive(xi) != xi:
        raise DiracforgeError("circle direction (%s) must be a primitive "
                              "integer vector" % weightString(xi))
    xiw = sys.weight(xi)

    vals = [sys.innerProduct(sys.weight(v.point), xiw)
            for v in model.vertices]
    if c in vals:
        raise SingularShift(
            "level %s is a critical value of the circle moment map"
            % rat_str(c))
    lo_img, hi_img = min(vals), max(vals)
    quant = toricQuantization(model)
    globalSeries = characterToSeries(quant, xiw)

    if c < lo_img or c > hi_img:
        # 0 outside the moment image: the whole manifold is one component,
        # labeled by the nearest critical value
        m = (lo_img if c < lo_img else hi_img) - c
        sign = 1 if m > 0 else -1
        series = characterToSeries(quant, tuple(sign * x for x in xiw))
        alpha = tuple(m * x for x in xiw)
        return [KirwanComponent(alpha, series, False)]

    lo, hi = c - window, c + window
    comps = []
    generic = True
    for group in _fixed_groups(model, xi, vals):
        val = vals[group[0]]
        m = val - c
        if m == 0:
            raise SingularShift(
                "fixed component sits at the reduction level %s"
                % rat_str(c))
        sign = 1 if m > 0 else -1
        pol = tuple(sign * x for x in xiw)
        own_window = sign * c + window
        if len(group) == 1:
            v = model.vertices[group[0]]
            outward = [tuple(-x for x in u) for u in v.edges]
            series = polarizedExpand(sys, outward, pol,
                                     own_window - sign * val).shift(v.point)
        else:
            generic = False
            series = _face_component_series(model, group, vals, xi, pol,
                                            own_window - sign * val)
        alpha = tuple(m * x for x in xiw)
        comps.append(KirwanComponent(alpha, series, False))

    # bilateral zero component: global minus the polarized pieces; the
    # constructor keeps lo <= <w, xi> <= hi on the integer functional of xi
    entries = dict(globalSeries.entries)
    for comp in comps:
        for w, m in comp.localSeries.entries.items():
            entries[w] = entries.get(w, 0) - m
    zero = ConeSeries(sys, entries, xiw, window - c, hi, lower=lo)
    comps.append(KirwanComponent(sys.zeroWeight(), zero, True))
    comps.sort(key=lambda comp: _dot(comp.alpha, xiw))

    # localization audit: for generic directions the vertex sum is an
    # independent route to the same interval
    if generic:
        ab = fixedPointCharacter(model, xiw, hi)
        same, witness = ab.equalOnInterval(globalSeries, lo, hi)
        if not same:
            raise VerificationError(
                "localization sum disagrees with the lattice character at "
                "(%s)" % weightString(witness))
    return comps


def _slice_count(model, xi, c):
    return sum(1 for z in model.latticePoints() if _dot(z, xi) == c)


def qrCheckCircle(model, xi, c, window=None):
    """Exact [Q,R]=0 for the circle reduction at integral level c: every
    off-level component contributes nothing at the level, and the level
    coefficient equals the slice lattice count (the reduced quantization)."""
    c = rat(c)
    if not is_integer(c):
        raise NotIntegral("reduction level %s must be integral to keep the "
                          "shifted model prequantized" % rat_str(c))
    model.requirePrequantized()
    sys = model.system
    if model.dimension == 0:
        xi = ()
    else:
        xi = _integral_direction(xi)
    if window is None:
        if model.dimension == 0:
            window = rat(4)
        else:
            vals = [_dot(v.point, xi) for v in model.vertices]
            window = max(vals) - min(vals) + 4
    comps = kirwanDecomposeCircle(model, xi, c, window)
    a, den = sys.pairingFunctional(xi)

    reduced = _slice_count(model, xi, c)
    rows = []
    mult0 = 0
    for comp in comps:
        level = 0
        # <w, xi> - c has the sign of n - c den L, n = a . (L w)
        entries = comp.localSeries.entries
        L, coords = _lattice_coords(entries)
        target = int(c) * den * L
        side = _dot(comp.alpha, xi)
        for (w, m), u in zip(entries.items(), coords):
            n = sum(map(mul, a, u))
            if n == target:
                level += m
            elif not comp.containsZero:
                if (n - target) * side < 0:
                    raise QRViolation(
                        "component (%s) has weight (%s) on the wrong side "
                        "of the level"
                        % (weightString(comp.alpha), weightString(w)))
        if comp.containsZero:
            if level != reduced:
                raise QRViolation(
                    "level coefficient %d of the zero component differs "
                    "from the reduced count %d" % (level, reduced))
        elif level != 0:
            raise QRViolation(
                "component (%s) contributes %d at the reduction level"
                % (weightString(comp.alpha), level))
        mult0 += level
        rows.append({"alpha": [rat_str(x) for x in comp.alpha],
                     "containsZero": comp.containsZero,
                     "levelCoefficient": level,
                     "terms": len(comp.localSeries.entries)})
    if mult0 != reduced:
        raise QRViolation("total level coefficient %d differs from the "
                          "reduced count %d" % (mult0, reduced))
    return {"model": model.label,
            "xi": list(xi),
            "c": rat_str(c),
            "window": rat_str(rat(window)),
            "components": rows,
            "mult0": mult0,
            "reduced": reduced,
            "match": True}


# ------------------------------------------------------- coadjoint orbits

class CoadjointModel:
    """Coadjoint orbit of a strictly dominant integral weight: the full
    flag manifold G/T with the prequantum structure picked out by lambda."""

    __slots__ = ("system", "lam")

    def __init__(self, system, lam):
        lam = system.weight(lam)
        if not system.isIntegral(lam):
            raise NotIntegral("orbit label (%s) is not integral"
                              % weightString(lam))
        if not system.isDominantRegular(lam):
            raise DiracforgeError(
                "orbit label (%s) must be strictly dominant; singular "
                "orbits are smaller flag manifolds" % weightString(lam))
        self.system = system
        self.lam = lam


def coadjointQuantization(model):
    """Quantization of the orbit by induction from the maximal torus with
    the spinor shift; Borel-Weil says the answer is the single irreducible
    V_lambda, and anything else is a shift bookkeeping failure."""
    pair = equalRankPair(model.system, "T")
    lamH = pair.weightToH(model.lam)
    twisted = tuple(a + b for a, b in zip(lamH, pair.shift))
    out = diracInduct(pair, twisted)
    if dict(out.entries) != {model.lam: 1}:
        got = " + ".join("%d V(%s)" % (m, weightString(w))
                         for w, m in sorted(out.entries.items())) or "0"
        raise ConventionMismatch(
            "induction of the shifted orbit character gave %s instead of "
            "the single irreducible (%s)" % (got, weightString(model.lam)))
    return out


def productQRCheck(rs, lam, mu):
    """[Q,R]=0 on O_lambda x O_mu*: the invariant part of V_lambda (x)
    V_mu* is one dimension exactly when the orbits match."""
    lam = rs.weight(lam)
    mu = rs.weight(mu)
    for w in (lam, mu):
        if not rs.isIntegral(w):
            raise NotIntegral("orbit label (%s) is not integral"
                              % weightString(w))
        if not rs.isDominantRegular(w):
            raise DiracforgeError("orbit label (%s) must be strictly "
                                  "dominant" % weightString(w))
    dec = tensorDecompose(rs, lam, dualWeight(rs, mu))
    mult = dec.get(rs.zeroWeight(), 0)
    expected = 1 if lam == mu else 0
    if mult != expected:
        raise QRViolation(
            "trivial multiplicity %d in V_(%s) (x) V_(%s)*, expected %d"
            % (mult, weightString(lam), weightString(mu), expected))
    return {"system": rs.label,
            "lambda": weightString(lam),
            "mu": weightString(mu),
            "multiplicity": mult,
            "expected": expected,
            "match": True}
