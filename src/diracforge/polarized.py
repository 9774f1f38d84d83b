"""Polarized character expansions for equivariant vector spaces.

Pi_i (1 - e^{-w_i})^{-1} has exactly one expansion whose support pairs
boundedly below against a chosen direction alpha: factors with
<w, alpha> < 0 expand geometrically in e^{-w}, factors with positive
pairing flip to -sum_{k>=1} e^{kw}.  The expansion is assembled factor
by factor under an exact window budget (a term survives a stage only if
the remaining factors' minimal pairings cannot push it past the window),
so the declared window carries no silent truncation.  Every expansion is
multiplied back against Pi (1 - e^{-w_i}) before it is returned.

Each fiber weight pairs with alpha as it stands, through the system's
integer functional (a, den) of alpha: every term carries its pairing
numerator a . w, and the window is the one bound window * den.  On
lattice fibers these are ints, and the terms are the output weights as
they stand; on fibers with Fraction coordinates the numerators are exact
Fractions, and each output coordinate becomes an int where it is
integral.
"""

from operator import add, mul, sub

from .characters import (ConeSeries, FormalCharacter, polarizationWitness,
                         sumSeries)
from .errors import (DiracforgeError, NonGenericPolarization, NotIntegral,
                     NonTrivialBaseAction, PolarizationViolated)
from .liecore import weightString
from .rationals import coord, rat


def polarizedExpand(system, fiberWeights, alpha, window):
    """The alpha-polarized expansion of Pi (1 - e^{-w_i})^{-1} as a
    ConeSeries, complete for pairings up to window.  An empty weight list
    gives the unit series, which is complete outright."""
    alpha = system.weight(alpha)
    if not any(alpha):
        raise DiracforgeError("zero direction cannot polarize")
    a, den = system.pairingFunctional(alpha)
    fiber = [system.weight(w) for w in fiberWeights]
    paired = []  # (w, <w, alpha> den) per fiber weight
    factors = []
    total_min = 0
    for w in fiber:
        d = sum(map(mul, a, w))
        paired.append((w, d))
        if d == 0:
            raise NonGenericPolarization(
                "fiber weight (%s) pairs to zero with the direction"
                % weightString(w))
        if d < 0:
            # sum_{k>=0} e^{-kw}: steps of -w, each raising the pairing by -d
            factors.append((tuple(-c for c in w), -d, 1, 0))
        else:
            # flipped: -sum_{k>=1} e^{kw}
            factors.append((w, d, -1, 1))
            total_min += d
    if not factors:
        return ConeSeries(system, {system.zeroWeight(): 1}, alpha, 0, None)
    window = rat(window)
    hi = coord(window * den)

    # budget[i]: the window less the least pairings factors i+1.. can add
    budget = [hi] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        _, step, _, k0 = factors[i + 1]
        budget[i] = budget[i + 1] - k0 * step
    terms = {(0,) * len(a): [1, 0]}  # weight -> [coefficient, pairing]
    for (wstep, step, sign, k0), top in zip(factors, budget):
        new = {}
        for u, (m, p) in terms.items():
            if not m:
                continue
            m *= sign
            p += k0 * step
            v = tuple(map(add, u, wstep)) if k0 else u
            while p <= top:
                t = new.get(v)
                if t is None:
                    new[v] = [m, p]
                else:
                    t[0] += m
                v = tuple(map(add, v, wstep))
                p += step
        terms = new
    terms = {u: t for u, t in terms.items() if t[0]}

    # defining property: multiplying back yields 1 on the shrunk window
    if hi >= total_min:
        _multiply_back(terms, paired, hi, total_min)

    order = sorted(terms)
    entries = {u: terms[u][0] for u in order}
    if not all(type(c) is int for w in fiber for c in w):
        entries = {tuple(map(coord, u)): m for u, m in entries.items()}
    return ConeSeries(system, entries, alpha, -rat(total_min, den), window)


def _multiply_back(terms, paired, hi, least):
    """Multiply the terms by Pi (1 - e^{-w}) over the fiber, given as
    (w, pairing numerator) pairs, and raise unless the product is 1.
    Entries past hi are dropped, hi falling by each positive pairing as
    the window shrinks; an entry below the support bound least, which
    falls by the same amounts, is an error."""
    chk = {u: t[0] for u, t in terms.items()}
    pairs = {u: t[1] for u, t in terms.items()}
    for u_w, d in paired:
        out = dict(chk)
        for v, m in chk.items():
            u = tuple(map(sub, v, u_w))
            c = out.get(u, 0) - m
            if c:
                out[u] = c
            else:
                out.pop(u, None)
            pairs.setdefault(u, pairs[v] - d)
        hi -= max(d, 0)
        least -= max(d, 0)
        chk = {}
        for u, m in out.items():
            p = pairs[u]
            if p > hi:
                continue
            if p < least:
                raise DiracforgeError(
                    "expansion failed the multiply-back check")
            chk[u] = m
    if chk != {(0,) * len(paired[0][0]): 1}:
        raise DiracforgeError("expansion failed the multiply-back check")


def vectorSpaceIndex(system, fiberWeights, alpha, shift, window):
    """e^{shift} times the polarized expansion; a positive <shift, alpha>
    makes the result strictly polarized."""
    shift = system.weight(shift)
    if not system.isIntegral(shift):
        raise NotIntegral("shift (%s) is not a lattice weight"
                          % weightString(shift))
    return polarizedExpand(system, fiberWeights, alpha, window).shift(shift)


def bundleIndex(system, baseCharacter, fiberWeights, alpha, shift, window,
                requirePolarized=True):
    """Convolution of a finite base character with the shifted fiber
    expansion.  With requirePolarized the base must carry the trivial
    torus action, which is the hypothesis under which the result is
    polarized; pass False to convolve anyway (windows still certified)."""
    if baseCharacter.basis != FormalCharacter.WEIGHT:
        raise DiracforgeError("bundle base must be a weight-basis character")
    if requirePolarized:
        for w in baseCharacter.entries:
            if any(w):
                raise NonTrivialBaseAction(
                    "base weight (%s) is nonzero; polarization is only "
                    "guaranteed over a trivially acted base" % weightString(w))
    fiber = vectorSpaceIndex(system, fiberWeights, alpha, shift, window)
    if not baseCharacter.entries:
        return ConeSeries(system, {}, system.weight(alpha), 0, None)
    return sumSeries([fiber.shift(wb).scale(m)
                      for wb, m in sorted(baseCharacter.entries.items())])


def vanishingCheck(series, alpha, strict=True):
    """Certify polarization of a series (strict by default) and, in the
    strict case, that the trivial weight has coefficient zero."""
    ok, witness = polarizationWitness(series, alpha, strict)
    if not ok:
        raise PolarizationViolated(
            "weight (%s) carries multiplicity %d on the wrong side"
            % (weightString(witness), series.entries[witness]))
    report = {"strict": bool(strict), "polarized": True}
    if strict:
        c0 = series.coefficient(series.system.zeroWeight())
        if c0 != 0:
            raise PolarizationViolated(
                "trivial weight has coefficient %d in a strictly polarized "
                "series" % c0)
        report["trivialCoefficient"] = 0
    return report
