"""Characters, weight multiplicities, and truncated cone series.

The two container types:

* FormalCharacter - finitely supported integer multiplicities over the
  weight lattice, either in the weight basis (a function on weights) or in
  the irreducible basis (a virtual decomposition into V_lambda's).
* ConeSeries - a formal series over the weight lattice with a declared
  polarizing direction, a support bound (offset), and a completeness
  window.  window=None means the stored entries are the entire series.
  No entry inside the certified range is ever silently missing; operations
  shrink windows instead of guessing.

A weight coordinate is an int when it is integral and a Fraction
otherwise (see liecore), so the integral weights every kernel here makes
are int tuples from the kernel to the report.  Irreducible characters come
from the Freudenthal recursion on them, reading the root system's int
data: the positive roots with their heights, rho and the scaled gram.  It
makes one pass per Weyl orbit: the dominant weights below lam are found
by subtracting positive roots (``_dominant_below``), and each dominant
multiplicity is spread over its orbit as soon as it is known
(``RootSystem.dominantOrbit``, which reaches each weight once), so every
root-string step reads the full weight dict.  The kernel
``_irreducible_weights`` answers {weight: multiplicity} from the cache
(whose file format and hit test are cache.py's alone) or from the
recursion, together with the entries keyed by the "%d,..." spelling of
each weight, formatted once: the cache file and the ``char`` report
share them.  Every decomposition is Dirac induction from the maximal
torus (``_straighten``): each weight u + rho of a Weyl-invariant
character is reflected into the dominant chamber and counted with the
sign of the reflection, so no summand's irreducible character is built.
"""

import itertools
import math
from operator import add, attrgetter, lt, mul, sub

from . import cache
from .errors import (BadEntryLine, DiracforgeError, InternalError,
                     NotDominant, NotIntegral, SystemMismatch, WindowTooSmall)
from .liecore import (gramPairing, systemFromLabel, weightFromStrings,
                      weightString)
from .rationals import coord, rat, ZERO, rat_str, rat_from_str


class FormalCharacter:
    WEIGHT = "weight-basis"
    IRREDUCIBLE = "irreducible-basis"

    def __init__(self, system, entries, basis=WEIGHT):
        if basis not in (self.WEIGHT, self.IRREDUCIBLE):
            raise DiracforgeError("unknown basis flag %r" % basis)
        self.system = system
        self.basis = basis
        self.entries = {system.weight(w): int(m) for w, m in entries.items()
                        if int(m) != 0}

    def coefficient(self, w):
        return self.entries.get(self.system.weight(w), 0)

    def support(self):
        return sorted(self.entries)

    def dimension(self):
        if self.basis == self.WEIGHT:
            return sum(self.entries.values())
        return sum(m * weylDimension(self.system, lam)
                   for lam, m in self.entries.items())

    def mapWeights(self, fn, system=None):
        out = {}
        for w, m in self.entries.items():
            v = fn(w)
            out[v] = out.get(v, 0) + m
        return FormalCharacter(system or self.system, out, self.basis)

    def __add__(self, other):
        self._compat(other)
        out = dict(self.entries)
        for w, m in other.entries.items():
            out[w] = out.get(w, 0) + m
        return FormalCharacter(self.system, out, self.basis)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return FormalCharacter(self.system,
                               {w: k * m for w, m in self.entries.items()},
                               self.basis)

    def convolve(self, other):
        """Pointwise product of class functions; weight basis only."""
        self._compat(other)
        if self.basis != self.WEIGHT:
            raise DiracforgeError("convolve needs weight-basis operands")
        out = {}
        for w1, m1 in self.entries.items():
            for w2, m2 in other.entries.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                c = out.get(w, 0) + m1 * m2
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
        return FormalCharacter(self.system, out)

    def _compat(self, other):
        if self.system != other.system:
            raise SystemMismatch("characters live on different systems")
        if self.basis != other.basis:
            raise DiracforgeError("basis flags differ")

    def __eq__(self, other):
        return (isinstance(other, FormalCharacter)
                and self.system == other.system
                and self.basis == other.basis
                and self.entries == other.entries)

    def __repr__(self):
        items = ", ".join("(%s): %d" % (weightString(w), m)
                          for w, m in sorted(self.entries.items()))
        return "FormalCharacter<%s|%s>{%s}" % (self.system.label, self.basis, items)

    def keyed(self):
        """[(coordinate string "p/q,...", multiplicity)] in support order."""
        return _keyed(self.entries, self.system.rank)

    # file format: header "<label> <basis-flag>", then "<coords p/q,...> <mult>"
    def to_lines(self, keyed=None):
        """The file lines; keyed, when given, is self.keyed() already built."""
        lines = ["%s %s" % (self.system.label, self.basis)]
        lines.extend("%s %d" % kv
                     for kv in (self.keyed() if keyed is None else keyed))
        return lines

    @classmethod
    def from_lines(cls, lines, system=None, first=1):
        """From file lines, the header on line first; a bad entry line
        raises BadEntryLine, before any header error."""
        entries = _entries_from_lines(lines[1:], first + 1)
        header = lines[0].split()
        if len(header) != 2:
            raise DiracforgeError("bad character header: %r" % lines[0])
        label, basis = header
        if system is None:
            system = systemFromLabel(label)
        return cls(system, entries, basis)


def _entries_from_lines(lines, first):
    """{weight: summed multiplicity} of "<coords p/q,...> <mult>" lines,
    lines[0] being line first of its file; blank lines are skipped."""
    entries = {}
    for no, ln in enumerate(lines, first):
        if ln.strip():
            try:
                coords, mult = ln.split()
                w = weightFromStrings(coords.split(","))
                m = int(mult)
            except (ValueError, ZeroDivisionError):
                raise BadEntryLine(
                    "%d: expected '<coords> <multiplicity>', got %r"
                    % (no, ln)) from None
            entries[w] = entries.get(w, 0) + m
    return entries


# ------------------------------------------------------------- irreducibles

def _require_dominant_integral(rs, lam):
    """lam as a tuple of ints; raises unless it is a dominant integral
    weight of rs."""
    lam = rs.weight(lam)
    if not rs.isIntegral(lam):
        raise NotIntegral("weight (%s) is not integral" % weightString(lam))
    if not rs.isDominant(lam):
        raise NotDominant("weight (%s) is not dominant" % weightString(lam))
    return tuple(map(int, lam))


def weylDimension(rs, lam):
    """Product formula over positive roots; independent of Freudenthal.

    Runs on int coordinates with the int gram: its scale enters the
    numerator and the denominator once per root, and cancels."""
    return _dimension(rs, _require_dominant_integral(rs, lam))


def _dimension(rs, lam):
    """weylDimension of lam, a tuple of ints already known to be dominant
    and integral."""
    rho = rs.rho
    lam_rho = tuple(map(add, lam, rho))
    # <v, a> = (v G) . a: one product with the gram per vector, not per root
    top, bottom = [[sum(map(mul, v, col)) for col in zip(*rs.intGram)]
                   for v in (lam_rho, rho)]
    num = den = 1
    for a in rs.positiveRoots:
        num *= sum(map(mul, top, a))
        den *= sum(map(mul, bottom, a))
    d, rem = divmod(num, den)
    if rem:
        raise InternalError("non-integral dimension %s"
                            % rat_str(rat(num, den)))
    return d


def _dominant_below(rs, lam):
    """(height, mu) for each dominant mu with lam - mu in the nonnegative-
    integer root lattice, the height being the number of simple roots in
    lam - mu.  lam and each mu are tuples of ints.

    Every such mu is reached from lam by subtracting positive roots one at
    a time through dominant weights (Stembridge, "The partial order of
    dominant weights", Adv. Math. 136, 1998), so the walk subtracts each
    positive root from each weight found and keeps the dominant results;
    each step adds the root's height from ``intRootCoefficients``.
    """
    # mu - alpha stays dominant unless a simple coordinate where alpha is
    # positive drops below zero
    steps = [(alpha, sum(coeffs),
              tuple((p, alpha[p]) for p in rs.simple_positions
                    if alpha[p] > 0))
             for alpha, coeffs in zip(rs.positiveRoots,
                                      rs.intRootCoefficients)]
    out = [(0, lam)]
    seen = {lam}
    for height, mu in out:  # the walk appends what it finds
        for alpha, h, positive in steps:
            for p, a in positive:
                if mu[p] < a:
                    break
            else:
                v = tuple(map(sub, mu, alpha))
                if v not in seen:
                    seen.add(v)
                    out.append((height + h, v))
    return out


def _freudenthal(rs, lam):
    """{weight: multiplicity in V_lam} for lam dominant integral.

    Every weight of V_lam is lam minus a sum of Cartan rows, so the
    recursion runs on int tuples, with the int gram; the quotient
    acc / denom does not change under its scale.  The dominant weights go
    in height order, and each multiplicity is spread over its Weyl orbit
    as soon as it is known.  A root-string step mu + k alpha (k > 0) then
    reads its multiplicity directly: the dominant weight of its orbit lies
    above mu, at a smaller height, so it was done before mu.
    """
    gram = rs.intGram

    def shifted_norm(mu):
        mu_rho = tuple(map(add, mu, rs.rho))
        return gramPairing(gram, mu_rho, mu_rho)

    # <mu, alpha> = mu . (G alpha): one product with the gram per root
    roots = []
    for alpha in rs.positiveRoots:
        g_alpha = [sum(map(mul, row, alpha)) for row in gram]
        roots.append((alpha, g_alpha, sum(map(mul, alpha, g_alpha))))
    target = shifted_norm(lam)
    weights = dict.fromkeys(rs.dominantOrbit(lam), 1)
    for _, mu in sorted(_dominant_below(rs, lam)):
        if mu == lam:
            continue
        denom = target - shifted_norm(mu)
        if denom == 0:
            raise InternalError("vanishing Freudenthal denominator")
        acc = 0
        for alpha, g_alpha, alpha_norm in roots:
            # <mu + k alpha, alpha>, k = 0
            v, p = mu, sum(map(mul, mu, g_alpha))
            while True:
                v = tuple(map(add, v, alpha))
                p += alpha_norm
                m = weights.get(v, 0)
                if m == 0:
                    # root strings through a weight diagram have no gaps
                    break
                acc += 2 * m * p
        val, rem = divmod(acc, denom)
        if rem or val < 0:
            raise InternalError("Freudenthal produced %s at (%s)"
                                % (rat_str(rat(acc, denom)),
                                   ",".join(map(str, mu))))
        if val:
            weights.update(dict.fromkeys(rs.dominantOrbit(mu), val))
    return weights


def _int_format(rank):
    """The format "%d,...,%d" of a weight of this rank with int (or
    integral) coordinates: "%d" % c is rat_str(c)."""
    return ",".join(["%d"] * rank)


def _irreducible_weights(rs, lam):
    """(weights, entries) of the irreducible with highest weight lam:
    weights is {int weight: multiplicity} in no particular order, entries
    {"%d,..." key: multiplicity} in key order, the cache file's and the
    char report's entries.

    The cache answers when it holds lam (see cache.py); its keys are split
    back into weights.  Otherwise the fused Freudenthal recursion does,
    each weight is formatted once, the keys are sorted once, and the
    entries are stored.
    """
    lam = _require_dominant_integral(rs, lam)
    entries = cache.load(rs, lam)
    if entries is not None:
        if not rs.rank:  # the one weight, (), is spelled ""
            return {(): entries[""]}, entries
        # the coordinates of all keys in a row, taken rank at a time
        coords = iter(map(int, ",".join(entries).split(",")))
        return dict(zip(zip(*[coords] * rs.rank), entries.values())), entries
    weights = _freudenthal(rs, lam)
    fmt = _int_format(rs.rank)
    entries = dict(zip(map(fmt.__mod__, weights), weights.values()))
    entries = {k: entries[k] for k in sorted(entries)}
    cache.store(rs, lam, entries)
    return weights, entries


def irreducibleCharacter(rs, lam):
    """Weight multiplicities of the irreducible with highest weight lam,
    as a weight-basis character in weight order; see
    _irreducible_weights."""
    weights, _ = _irreducible_weights(rs, lam)
    # the keys are weights of rs and the multiplicities nonzero ints
    # already, so the entries dict is built once, here, not again by the
    # constructor
    chi = FormalCharacter.__new__(FormalCharacter)
    chi.system, chi.basis = rs, FormalCharacter.WEIGHT
    chi.entries = {w: weights[w] for w in sorted(weights)}
    return chi


# ----------------------------------------------------------- decompositions

_NOT_VIRTUAL = ("no dominant weight left to peel; "
                "input is not a virtual character")


def _straighten(rs, shifted):
    """{nu: c} from {u + rho: m}: Dirac induction from the maximal torus.

    Each u + rho moves to the dominant chamber, w(u + rho) = nu + rho, and
    adds sign(w) m at nu, or nothing when nu + rho lies on a wall (the
    Weyl character formula; Racah-Speiser, Brauer-Klimyk).  Zero totals
    are dropped; the result is in decreasing (|nu + rho|^2, nu) order.
    """
    totals = {}
    for u, m in shifted.items():
        dom, w = rs.makeDominant(u)
        if rs.isDominantRegular(dom):
            totals[dom] = totals.get(dom, 0) + w.sign * m
    gram = rs.intGram
    ranked = sorted((d for d, c in totals.items() if c), reverse=True,
                    key=lambda d: (gramPairing(gram, d, d), d))
    return {tuple(map(sub, d, rs.rho)): totals[d] for d in ranked}


def decomposeCharacter(chi):
    """The irreducible decomposition of a weight-basis character, in the
    irreducible basis: the straightening of {w + rho: chi(w)}.

    Works for any virtual character (integer coefficients, signs
    allowed); raises if the input is not one.  A dominant weight off the
    lattice raises NotIntegral, the greatest (|w + rho|^2, w) first.
    Otherwise chi must carry one multiplicity on the Weyl orbit of each
    dominant weight, and these orbits must cover its support.
    """
    rs = chi.system
    if chi.basis == FormalCharacter.IRREDUCIBLE:
        return chi
    L, coords = _lattice_coords(chi.entries)
    if L != 1:
        off = []
        for w in chi.entries:
            if rs.isDominant(w) and not rs.isIntegral(w):
                w_rho = tuple(map(add, w, rs.rho))
                off.append((rs.innerProduct(w_rho, w_rho), w))
        if off:
            _require_dominant_integral(rs, max(off)[1])  # raises
        # an orbit of lattice weights has none off the lattice
        raise DiracforgeError(_NOT_VIRTUAL)
    weights = dict(zip(coords, chi.entries.values()))
    orbits = [(rs.dominantOrbit(u), m) for u, m in weights.items()
              if rs.isDominant(u)]
    if sum(len(orbit) for orbit, _ in orbits) != len(weights) \
            or any(weights.get(v) != m for orbit, m in orbits for v in orbit):
        raise DiracforgeError(_NOT_VIRTUAL)
    shifted = {tuple(map(add, u, rs.rho)): m for u, m in weights.items()}
    return FormalCharacter(rs, _straighten(rs, shifted),
                           FormalCharacter.IRREDUCIBLE)


def _check_summands(rs, dec, dim, what):
    """Raise InternalError unless every multiplicity of {lam: m} is positive
    and the V_lam add up to dimension dim."""
    if any(m <= 0 for m in dec.values()):
        raise InternalError("%s decomposed with negative parts" % what)
    # _straighten's summands are dominant int weights: no check per summand
    if sum(m * _dimension(rs, lam) for lam, m in dec.items()) != dim:
        raise InternalError("%s lost dimension" % what)


def tensorDecompose(rs, lam, mu):
    """V_lam (x) V_mu as {dominant weight: multiplicity}: the
    straightening of {lam + rho + v: m_mu(v)} over the weights v of the
    factor of smaller dimension, called V_mu here (Brauer-Klimyk).  No
    product character and no summand's character is built."""
    lam = _require_dominant_integral(rs, lam)
    mu = _require_dominant_integral(rs, mu)
    dims = _dimension(rs, lam), _dimension(rs, mu)
    if dims[0] < dims[1]:
        lam, mu = mu, lam
    top = tuple(map(add, lam, rs.rho))
    weights, _ = _irreducible_weights(rs, mu)
    dec = _straighten(rs, {tuple(map(add, top, v)): m
                           for v, m in weights.items()})
    _check_summands(rs, dec, dims[0] * dims[1], "tensor product")
    return dec


def restrictCharacter(pair, lam):
    """Branch V_lam from G to the equal-rank subgroup H of the pair, as
    {dominant H-weight: multiplicity}: V_lam's weights straightened on H."""
    g, h = pair.g, pair.h
    lam = _require_dominant_integral(g, lam)
    weights, _ = _irreducible_weights(g, lam)
    shifted = {}
    for u, m in weights.items():
        v = tuple(map(add, pair.weightToH(u), h.rho))
        shifted[v] = shifted.get(v, 0) + m
    dec = _straighten(h, shifted)
    _check_summands(h, dec, sum(weights.values()), "restriction")
    return dec


def trivialMultiplicity(chi):
    """Multiplicity of the trivial representation in a virtual character."""
    if chi.basis == FormalCharacter.IRREDUCIBLE:
        return chi.coefficient(chi.system.zeroWeight())
    return decomposeCharacter(chi).coefficient(chi.system.zeroWeight())


def dualWeight(rs, lam):
    """Highest weight of the dual of V_lam."""
    lam = _require_dominant_integral(rs, lam)
    dom, _ = rs.makeDominant(tuple(-c for c in lam))
    return dom


# ------------------------------------------------ int lattice coordinates

_NUM = attrgetter("numerator")
_DEN = attrgetter("denominator")


def _lattice_scale(weights):
    """The lcm of the coordinate denominators of the weights: 1 on the
    integral lattice."""
    return math.lcm(*set(map(_DEN, itertools.chain.from_iterable(weights))))


def _int_coords(weights, L):
    """L w as a tuple of ints for each weight in turn; L a multiple of
    every coordinate denominator.  Int order on the L w is the rational
    order on the weights."""
    if L == 1:
        return (tuple(map(_NUM, w)) for w in weights)
    return (tuple([c.numerator * (L // c.denominator) for c in w])
            for w in weights)


def _lattice_coords(weights):
    """(L, [L w for w in weights]) with L = _lattice_scale(weights)."""
    L = _lattice_scale(weights)
    return L, list(_int_coords(weights, L))


def _rational_weights(coords, L):
    """The weights u / L for int tuples u, one shared coordinate object per
    distinct coordinate: an int where L divides it."""
    if L == 1:
        return coords
    scalars = {c: coord(c, L)
               for c in set(itertools.chain.from_iterable(coords))}
    return [tuple([scalars[c] for c in u]) for u in coords]


def _keyed(entries, rank):
    """[(coordinate string "p/q,...", value)] of {weight: value}, sorted
    by weight.  On the integral lattice the weights themselves are
    formatted and compared; otherwise their int coordinates L w are.
    Entries already in weight order, as a character from ints or a
    polarized expansion is, are not sorted."""
    L = _lattice_scale(entries)
    if L == 1:
        coords = list(entries)
        keys = map(_int_format(rank).__mod__, coords)
    else:
        coords = list(_int_coords(entries, L))
        keys = (",".join(rat_str(rat(c, L)) for c in u) for u in coords)
    keyed = list(zip(keys, entries.values()))
    if all(map(lt, coords, itertools.islice(coords, 1, None))):
        return keyed
    return [keyed[i] for i in sorted(range(len(keyed)),
                                     key=coords.__getitem__)]


def _translated(weights, beta):
    """[w + beta for w in weights], added on int coordinates."""
    L, coords = _lattice_coords([beta, *weights])
    b = coords[0]
    return _rational_weights([tuple(map(add, u, b)) for u in coords[1:]], L)


# --------------------------------------------------------------- cone series

class ConeSeries:
    """Lattice series with a polarizing direction and explicit certification.

    Pairings run on ints.  (a, den) = system.pairingFunctional(polarizer)
    gives <w, polarizer> = (a . w) / den, so a lattice weight w has the int
    numerator n(w) = a . w; a weight with coordinates in (1/L)Z has
    n(w) = a . (L w) over den * L instead, L the lcm of the coordinate
    denominators of the weights compared.

    Completeness contract: every lattice weight w with
        ceil(lower * den) <= n(w) <= floor(window * den),
    that is lower <= <w, polarizer> <= window, has its exact coefficient
    stored (absent = 0).  window=None means the stored entries are the
    entire series.  lower=None means certified all the way down, backed by
    the support bound: offset=None claims nothing, otherwise every support
    weight satisfies n(w) >= ceil(-offset * den * L), that is
    <w, polarizer> >= -offset.
    """

    def __init__(self, system, entries, polarizer, offset, window, lower=None):
        self.system = system
        self.polarizer = system.weight(polarizer)
        self.offset = None if offset is None else rat(offset)
        self.window = None if window is None else rat(window)
        self.lower = None if lower is None else rat(lower)
        self._functional = system.pairingFunctional(self.polarizer)
        kept = []
        for w, m in entries.items():
            m = int(m)
            if m:
                kept.append((system.weight(w), m))
        a, den = self._functional
        L, coords = _lattice_coords([w for w, _ in kept])
        scale = den * L
        hi = None if self.window is None else math.floor(self.window * scale)
        lo = None if self.lower is None else math.ceil(self.lower * scale)
        floor_ = None if self.offset is None \
            else math.ceil(-self.offset * scale)
        self.entries = {}
        for (w, m), u in zip(kept, coords):
            n = sum(map(mul, a, u))
            if hi is not None and n > hi:
                continue  # beyond the certified window: drop, never guess
            if lo is not None and n < lo:
                continue
            if floor_ is not None and n < floor_:
                raise DiracforgeError(
                    "weight (%s) violates the declared support bound"
                    % weightString(w))
            self.entries[w] = m

    def pairing(self, w):
        a, den = self._functional
        L, (u,) = _lattice_coords([self.system.weight(w)])
        return rat(sum(map(mul, a, u)), den * L)

    def coefficient(self, w):
        w = self.system.weight(w)
        p = self.pairing(w)
        if self.window is not None and p > self.window:
            raise WindowTooSmall("coefficient at pairing %s lies past window %s"
                                 % (rat_str(p), rat_str(self.window)))
        if self.lower is not None and p < self.lower:
            raise WindowTooSmall("coefficient at pairing %s lies below %s"
                                 % (rat_str(p), rat_str(self.lower)))
        return self.entries.get(w, 0)

    def support(self):
        return sorted(self.entries)

    def keyed(self):
        """[(coordinate string "p/q,...", coefficient)] in support order."""
        return _keyed(self.entries, self.system.rank)

    def isComplete(self):
        return self.window is None

    def minSupportPairing(self):
        if not self.entries:
            return None
        a, den = self._functional
        L, coords = _lattice_coords(self.entries)
        return rat(min(sum(map(mul, a, u)) for u in coords), den * L)

    def scale(self, k):
        return ConeSeries(self.system,
                          {w: k * m for w, m in self.entries.items()},
                          self.polarizer, self.offset, self.window, self.lower)

    def shift(self, beta):
        """Multiply by e^beta: translate support and all certified bounds.
        Every entry stays inside the translated bounds, so none is checked
        again."""
        beta = self.system.weight(beta)
        d = self.pairing(beta)
        out = ConeSeries.__new__(ConeSeries)
        out.__dict__.update(self.__dict__)
        out.entries = dict(zip(_translated(self.entries, beta),
                               self.entries.values()))
        if self.offset is not None:
            out.offset = self.offset - d
        if self.window is not None:
            out.window = self.window + d
        if self.lower is not None:
            out.lower = self.lower + d
        return out

    def __add__(self, other):
        return sumSeries([self, other])

    def __sub__(self, other):
        return self + other.scale(-1)

    def mulOneMinusExp(self, w):
        """Multiply by (1 - e^{-w}).

        Coefficient at u needs the input at u and at u+w, so the window
        drops by <w,polarizer> when that pairing is positive; the support
        bound widens by the same amount, and any lower certification edge
        rises when the pairing is negative.
        """
        w = self.system.weight(w)
        d = self.pairing(w)
        entries = dict(self.entries)
        moved = _translated(self.entries, tuple(-c for c in w))
        for u, m in zip(moved, self.entries.values()):
            c = entries.get(u, 0) - m
            if c:
                entries[u] = c
            else:
                entries.pop(u, None)
        window = None if self.window is None else self.window - max(d, ZERO)
        offset = None if self.offset is None else self.offset + max(d, ZERO)
        lower = None if self.lower is None else self.lower + max(-d, ZERO)
        return ConeSeries(self.system, entries, self.polarizer,
                          offset, window, lower)

    def equalOnInterval(self, other, lo, hi):
        """Exact coefficient comparison for lo <= pairing <= hi.

        Returns (True, None) or (False, witness weight); raises
        WindowTooSmall when either side cannot certify the interval.
        """
        lo, hi = rat(lo), rat(hi)
        for s in (self, other):
            if s.window is not None and hi > s.window:
                raise WindowTooSmall("interval top %s past window %s"
                                     % (rat_str(hi), rat_str(s.window)))
            if s.lower is not None and lo < s.lower:
                raise WindowTooSmall("interval bottom %s below certified %s"
                                     % (rat_str(lo), rat_str(s.lower)))
            if s.lower is None and s.offset is None and s.window is not None:
                raise WindowTooSmall("series claims no support bound")
        keys = set()
        for s in (self, other):
            a, den = s._functional
            L, coords = _lattice_coords(s.entries)
            lo_n = math.ceil(lo * den * L)
            hi_n = math.floor(hi * den * L)
            keys.update(w for w, u in zip(s.entries, coords)
                        if lo_n <= sum(map(mul, a, u)) <= hi_n)
        bad = [w for w in keys
               if self.entries.get(w, 0) != other.entries.get(w, 0)]
        if bad:
            return False, min(bad)
        return True, None

    # header: "<label> cone-series polarizer=... offset=... window=... [lower=...]"
    def to_lines(self, keyed=None):
        """The file lines; keyed, when given, is self.keyed() already built."""
        head = "%s cone-series polarizer=%s offset=%s window=%s" % (
            self.system.label,
            weightString(self.polarizer),
            "none" if self.offset is None else rat_str(self.offset),
            "none" if self.window is None else rat_str(self.window))
        if self.lower is not None:
            head += " lower=%s" % rat_str(self.lower)
        lines = [head]
        lines.extend("%s %d" % kv
                     for kv in (self.keyed() if keyed is None else keyed))
        return lines

    @classmethod
    def from_lines(cls, lines, system=None, first=1):
        """From file lines, the header on line first; a bad entry line
        raises BadEntryLine, before any header error."""
        entries = _entries_from_lines(lines[1:], first + 1)
        head = lines[0].split()
        if len(head) < 5 or head[1] != "cone-series":
            raise DiracforgeError("bad cone-series header: %r" % lines[0])
        if system is None:
            system = systemFromLabel(head[0])
        fields = dict(part.split("=", 1) for part in head[2:])
        polarizer = weightFromStrings(fields["polarizer"].split(","))
        offset = None if fields["offset"] == "none" else rat_from_str(fields["offset"])
        window = None if fields["window"] == "none" else rat_from_str(fields["window"])
        lower = rat_from_str(fields["lower"]) if "lower" in fields else None
        return cls(system, entries, polarizer, offset, window, lower)

    def __eq__(self, other):
        return (isinstance(other, ConeSeries)
                and self.system == other.system
                and self.polarizer == other.polarizer
                and self.offset == other.offset
                and self.window == other.window
                and self.lower == other.lower
                and self.entries == other.entries)

    def __repr__(self):
        return "ConeSeries<%s|%d terms|window %s>" % (
            self.system.label, len(self.entries),
            "none" if self.window is None else rat_str(self.window))


def sumSeries(parts):
    """The sum of one or more aligned cone series, built once.

    The entries add in one dict; window, offset and lower are those a chain
    of + gives: the least window, the greatest offset while every part has
    one, and otherwise the greatest lower edge.
    """
    first = parts[0]
    window, offset, lower = first.window, first.offset, first.lower
    entries = dict(first.entries)
    for s in parts[1:]:
        if s.system != first.system or s.polarizer != first.polarizer:
            raise SystemMismatch("cone series are not aligned")
        if window is None:
            window = s.window
        elif s.window is not None:
            window = min(window, s.window)
        if offset is None or s.offset is None:
            offset = None
            lows = [b for b in (lower, s.lower) if b is not None]
            lower = max(lows) if lows else None
        else:
            offset = max(offset, s.offset)
            lower = None
        for w, m in s.entries.items():
            entries[w] = entries.get(w, 0) + m
    return ConeSeries(first.system, entries, first.polarizer,
                      offset, window, lower)


def characterToSeries(chi, polarizer):
    """Embed a finite weight-basis character as a complete cone series."""
    if chi.basis != FormalCharacter.WEIGHT:
        raise DiracforgeError("need a weight-basis character")
    sigma = ConeSeries(chi.system, chi.entries, polarizer, None, None)
    low = sigma.minSupportPairing()
    sigma.offset = ZERO if low is None else max(-low, ZERO)
    return sigma


def _aligned(system, alpha, polarizer):
    """Is alpha a positive rational multiple of polarizer?"""
    t = None
    for a, p in zip(alpha, polarizer):
        if (a == 0) != (p == 0):
            return False
        if p != 0:
            r = rat(a, p)
            if r <= 0 or (t is not None and r != t):
                return False
            t = r
    return t is not None


def polarizationWitness(sigma, alpha, strict=False):
    """Certify that sigma is supported on <., alpha> >= 0 (> 0 when strict).

    Returns (True, None) or (False, offending weight).  A truncated series
    can only be certified along its own polarizer with a window reaching
    the zero level; anything else raises WindowTooSmall.
    """
    alpha = sigma.system.weight(alpha)
    if not any(alpha):
        raise DiracforgeError("zero direction cannot polarize")
    if not sigma.isComplete():
        if sigma.offset is None:
            raise WindowTooSmall("two-sided series cannot certify polarization")
        if not _aligned(sigma.system, alpha, sigma.polarizer):
            raise WindowTooSmall("direction is not certified by this series")
        if sigma.window < 0:
            raise WindowTooSmall("window stops short of the zero level")
        # weights past the window pair strictly above window >= 0 already
    a, _ = sigma.system.pairingFunctional(alpha)
    _, coords = _lattice_coords(sigma.entries)
    least = 1 if strict else 0  # the sign of a . (L w) is that of <w, alpha>
    bad = [w for w, u in zip(sigma.entries, coords)
           if sum(map(mul, a, u)) < least]
    if bad:
        return False, min(bad)
    return True, None
