"""Exact rational scalars.

All payload arithmetic in this package is exact.  Scalars and matrix
entries are ``fractions.Fraction``.  A weight coordinate is an ``int``
when it is integral and a ``Fraction`` otherwise (``coord``); the two
compare and hash equal, so a weight is the same dict key either way.

Wire form: a rational serializes as ``"p"`` or ``"p/q"`` in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

# read by the benchmark environment record (perfbench/run.py)
RATIONAL_BACKEND = "fraction"


def rat(p=0, q=1):
    """Fraction(p, q); the two-argument form rejects floats and strings."""
    return Fraction(p, q)


def coord(p, q=1):
    """p/q as a weight coordinate: an int when q divides p, else a
    Fraction.  p and q are ints or Fractions."""
    if type(p) is int and type(q) is int and q and not p % q:
        return p // q
    x = Fraction(p, q)
    return x.numerator if x.denominator == 1 else x


ZERO = rat(0)
ONE = rat(1)


def rat_from_str(s):
    """Parse "p" or "p/q" (lowest terms not required); an int when the
    value is integral."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return coord(int(p), int(q))
    return int(s)


def rat_str(x):
    """Canonical wire form, "p" or "p/q"."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    return "%d/%d" % (n, d)


def is_integer(x):
    return x.denominator == 1


def exact_sqrt(x):
    """Return r with r*r == x, or None. x must be a nonnegative rational."""
    if x < 0:
        return None
    p, q = int(x.numerator), int(x.denominator)
    rp = math.isqrt(p)
    rq = math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return rat(rp, rq)
    return None


def squarefree_core(x):
    """Squarefree integer c with x = c * (rational square), for rational x > 0.

    Two positive rationals differ by a rational square factor iff their cores
    coincide.  Factors by trial division; fine at desk scale.
    """
    if x <= 0:
        raise ValueError("positive rationals only")
    n = int(x.numerator) * int(x.denominator)
    core = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                core *= d
        d += 1
    return core * n
