"""Dirac induction from the representation ring of H into that of G.

For an equal-rank pair the map sends the H-irreducible with highest
weight lam to sign(w) V_mu where mu + rho_G = w(lam + rho_H), and to
zero when lam + rho_H is singular or falls off the G-weight lattice.
That is the straightening ``characters._straighten`` of the one weight
lam + rho_H, the kernel behind every decomposition in ``characters``.
Everything extends linearly, including to windowed cone series whose
entries are read as irreducible labels; the window shrinks by the
pairing of the rho shift against the polarizer, which is exactly what
completeness of the output costs.

The multiplicity-transfer check tensors by the one-dimensional twist
C_{rho_G - rho_H} first.  That weight is central for H (it pairs to
zero with every H-root), so the twist is an honest character and acts
on irreducible labels by translation.
"""

from .characters import (ConeSeries, FormalCharacter,
                         _require_dominant_integral, _straighten,
                         decomposeCharacter, trivialMultiplicity)
from .errors import (DiracforgeError, NotDominant, TransferMismatch,
                     WindowUnderflow)
from .liecore import weightString
from .rationals import rat_str


def diracInduct(pair, lam_h):
    """sign(w) V_mu as above, returned as an irreducible-basis character
    over G (empty when the induction vanishes).  Total on dominant
    integral H-weights."""
    g, h = pair.g, pair.h
    lam_h = _require_dominant_integral(h, lam_h)
    xi = pair.weightToG(tuple(a + b for a, b in zip(lam_h, h.rho)))
    entries = _straighten(g, {xi: 1}) if g.isIntegral(xi) else {}
    return FormalCharacter(g, entries, basis=FormalCharacter.IRREDUCIBLE)


def inductCharacter(pair, chi):
    """Linear extension of diracInduct; accepts a finite character over H
    (either basis) or a ConeSeries of irreducible labels."""
    if isinstance(chi, ConeSeries):
        return _induct_series(pair, chi)
    if chi.basis == FormalCharacter.WEIGHT:
        chi = decomposeCharacter(chi)
    out = FormalCharacter(pair.g, {}, basis=FormalCharacter.IRREDUCIBLE)
    for mu, m in sorted(chi.entries.items()):
        out = out + diracInduct(pair, mu).scale(m)
    return out


def _induct_series(pair, sigma):
    """An output label nu collects from the whole orbit of nu + rho_G, and
    with a G-dominant polarizer the orbit's pairing peaks at the dominant
    representative; certifying nu up to B - <shift, polarizer> therefore
    keeps every contributor inside the input window."""
    g, h = pair.g, pair.h
    alpha_g = pair.weightToG(sigma.polarizer)
    if not g.isDominant(alpha_g):
        raise DiracforgeError(
            "series induction needs a polarizer mapping into the dominant "
            "chamber of G")
    if sigma.lower is not None:
        raise WindowUnderflow("two-sided windows cannot be inducted")
    if sigma.window is not None and sigma.offset is None:
        raise WindowUnderflow("series declares no support bound")
    drop = h.innerProduct(pair.shift, sigma.polarizer)
    window = None if sigma.window is None else sigma.window - drop
    if window is not None and window < 0:
        raise WindowUnderflow(
            "rho shift eats the whole window: %s left" % rat_str(window))
    entries = {}
    for mu, m in sorted(sigma.entries.items()):
        if not h.isDominant(mu):
            raise NotDominant("series entry (%s) is not an irreducible label"
                              % weightString(mu))
        piece = diracInduct(pair, mu)
        for nu, s in piece.entries.items():
            c = entries.get(nu, 0) + s * m
            if c:
                entries[nu] = c
            else:
                entries.pop(nu, None)
    # dominant labels against a dominant polarizer never pair negatively
    return ConeSeries(g, entries, alpha_g, 0, window)


def multiplicityTransferCheck(pair, chi):
    """Trivial-multiplicity transfer through induction.

    Asserts that inducting chi (x) C_{rho_G - rho_H} has the same
    multiplicity at the trivial G-representation as chi has at the
    trivial H-representation.  Raises TransferMismatch otherwise; the
    identity is a theorem only for index-shaped inputs, so a mismatch
    on an arbitrary virtual character is a correct report, not a bug.
    """
    h = pair.h
    if chi.basis == FormalCharacter.WEIGHT:
        chi = decomposeCharacter(chi)
    twisted = FormalCharacter(
        h,
        {tuple(a + b for a, b in zip(h.weight(mu), pair.shift)): m
         for mu, m in chi.entries.items()},
        basis=FormalCharacter.IRREDUCIBLE)
    inducted = inductCharacter(pair, twisted)
    lhs = trivialMultiplicity(inducted)
    rhs = chi.coefficient(h.zeroWeight())
    report = {
        "pair": pair.label,
        "inducted": {weightString(nu): m
                     for nu, m in sorted(inducted.entries.items())},
        "trivialMultiplicityG": lhs,
        "trivialMultiplicityH": rhs,
        "match": lhs == rhs,
    }
    if lhs != rhs:
        raise TransferMismatch(
            "trivial multiplicity %d after induction, %d before (pair %s)"
            % (lhs, rhs, pair.label))
    return report
