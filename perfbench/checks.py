"""Answer checks on routes independent of the code under test.

``check(argv, code, out)`` returns None when a request's report is right
and a one-line reason otherwise.  The checks use only the root-system data
(gram matrix, rho, positive roots) and the inputs the benchmark wrote:

* verify-kostant: every scalar is |lambda+rho|^2, from the gram matrix;
* verify-relative: every block is |lambda+rho_G|^2 - |mu+rho_H|^2, and
  sum mult * dim_H(mu) = dim V * |S_p|;
* char, tensor, restrict: dimensions add up under the Weyl dimension
  formula;
* induct: the answer is 0 or +-V(lambda) with |lambda+rho_G| = |mu+rho_H|;
* polarize: the series is the product of the per-factor geometric series,
  counted by brute force inside the window;
* qr-toric, decompose: slice and lattice counts of the model polytope;
* qr-coadjoint: Q(O_lambda) = V(lambda), and the product multiplicity is 1
  exactly when the orbits match;
* the induction oracle: kernelIndex = diracInduct.
"""

import json
import os
from fractions import Fraction
from itertools import product

from workloads import ORACLE


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _weight(text):
    return tuple(Fraction(p) for p in text.split(","))


def _ip(rs, a, b):
    g = rs.gram
    n = len(a)
    return sum((a[i] * g[i][j] * b[j] for i in range(n) for j in range(n)),
               Fraction(0))


def _shifted_norm(rs, lam):
    v = tuple(a + r for a, r in zip(lam, rs.rho))
    return _ip(rs, v, v)


def weyl_dimension(rs, lam):
    """prod over positive roots of <lam+rho, a> / <rho, a>."""
    v = tuple(a + r for a, r in zip(lam, rs.rho))
    dim = Fraction(1)
    for alpha in rs.positiveRoots:
        dim *= _ip(rs, v, alpha) / _ip(rs, rs.rho, alpha)
    if dim.denominator != 1:
        raise ValueError("non-integral Weyl dimension at %s" % (lam,))
    return int(dim)


def _lambdas(rs, argv):
    """The labels a --weight or --lambda-max request covers, in order."""
    if "--weight" in argv:
        return [_weight(_opt(argv, "--weight"))]
    bound = int(_opt(argv, "--lambda-max"))
    return [tuple(Fraction(c) for c in coords)
            for coords in product(range(bound + 1), repeat=rs.rank)]


def _kostant(argv, doc):
    from diracforge.liecore import systemFromLabel
    rs = systemFromLabel(_opt(argv, "--type"))
    lams = _lambdas(rs, argv)
    blocks = doc["blocks"]
    if [_weight(b["lambda"]) for b in blocks] != lams:
        return "blocks do not cover the requested weights"
    for b, lam in zip(blocks, lams):
        want = _shifted_norm(rs, lam)
        if (Fraction(b["scalar"]), Fraction(b["expected"])) != (want, want) \
                or b["match"] is not True:
            return "scalar %s at (%s), |lambda+rho|^2 = %s" % (
                b["scalar"], b["lambda"], want)
    return None if doc["allMatch"] is True else "allMatch is not true"


def _relative(argv, doc):
    from diracforge.liecore import pairFromLabel
    pair = pairFromLabel(_opt(argv, "--pair"))
    g, h = pair.g, pair.h
    lams = _lambdas(g, argv)
    runs = doc["runs"]
    if [_weight(r["lambda"]) for r in runs] != lams:
        return "runs do not cover the requested weights"
    spinor = 2 ** (len(g.positiveRoots) - len(h.positiveRoots))
    for run, lam in zip(runs, lams):
        norm = _shifted_norm(g, lam)
        total = 0
        zeros = []
        for b in run["blocks"]:
            mu = _weight(b["mu"])
            want = norm - _shifted_norm(h, mu)
            if Fraction(b["scalar"]) != want or b["match"] is not True:
                return "block (%s) of (%s) has scalar %s, expected %s" % (
                    b["mu"], run["lambda"], b["scalar"], want)
            total += b["multiplicity"] * weyl_dimension(h, mu)
            if want == 0:
                zeros.append(b["mu"])
        if total != weyl_dimension(g, lam) * spinor:
            return "blocks of (%s) span %d dimensions, dim V * |S_p| = %d" % (
                run["lambda"], total, weyl_dimension(g, lam) * spinor)
        if run["kernelCandidates"] != zeros:
            return "kernel candidates of (%s) are not the zero blocks" % (
                run["lambda"],)
    return None if doc["allMatch"] is True else "allMatch is not true"


def _char(argv, doc):
    from diracforge.liecore import systemFromLabel
    rs = systemFromLabel(_opt(argv, "--type"))
    dim = weyl_dimension(rs, _weight(_opt(argv, "--weight")))
    total = sum(doc["entries"].values())
    if (total, doc["dimension"]) != (dim, dim):
        return "multiplicities sum to %d, dimension field %s, Weyl " \
            "dimension %d" % (total, doc["dimension"], dim)
    return None


def _tensor(argv, doc):
    from diracforge.liecore import systemFromLabel
    rs = systemFromLabel(_opt(argv, "--type"))
    want = (weyl_dimension(rs, _weight(_opt(argv, "--lhs")))
            * weyl_dimension(rs, _weight(_opt(argv, "--rhs"))))
    got = sum(m * weyl_dimension(rs, _weight(w))
              for w, m in doc["summands"].items())
    return None if got == want else "summands span %d, product %d" % (
        got, want)


def _restrict(argv, doc):
    from diracforge.liecore import pairFromLabel
    pair = pairFromLabel(_opt(argv, "--pair"))
    want = weyl_dimension(pair.g, _weight(_opt(argv, "--weight")))
    got = sum(m * weyl_dimension(pair.h, _weight(w))
              for w, m in doc["entries"].items())
    return None if got == want else "restriction spans %d, dim V %d" % (
        got, want)


def _induct(argv, doc):
    from diracforge.liecore import pairFromLabel
    pair = pairFromLabel(_opt(argv, "--pair"))
    entries = doc["entries"]
    if not entries:
        return None
    ((lam, sign),) = entries.items()
    mu = _weight(_opt(argv, "--weight"))
    if sign not in (1, -1) or (_shifted_norm(pair.g, _weight(lam))
                               != _shifted_norm(pair.h, mu)):
        return "induced %+d V(%s) breaks the rho-shift norm" % (sign, lam)
    return None


def _polarize(argv, doc):
    from diracforge.liecore import systemFromLabel
    rs = systemFromLabel(_opt(argv, "--type"))
    alpha = _weight(_opt(argv, "--alpha"))
    window = Fraction(_opt(argv, "--window"))
    factors = []
    for text in _opt(argv, "--fiber").split(";"):
        w = _weight(text)
        p = _ip(rs, w, alpha)
        # <w,alpha> < 0: sum_{k>=0} e^{-kw};  > 0: -sum_{k>=1} e^{kw}
        step, first, sign = (tuple(-x for x in w), 0, 1) if p < 0 \
            else (w, 1, -1)
        factors.append((step, first, sign, abs(p)))
    want = {}

    def expand(i, weight, pairing, coef):
        if i == len(factors):
            want[weight] = want.get(weight, 0) + coef
            return
        step, k, sign, p = factors[i]
        while pairing + k * p <= window:
            expand(i + 1, tuple(a + k * s for a, s in zip(weight, step)),
                   pairing + k * p, coef * sign)
            k += 1

    expand(0, tuple(Fraction(0) for _ in alpha), Fraction(0), 1)
    want = {w: m for w, m in want.items() if m}
    got = {_weight(w): m for w, m in doc["entries"].items()}
    if got != want or doc["terms"] != len(got):
        return "series differs from the product expansion (%d vs %d terms)" \
            % (len(got), len(want))
    return None


def lattice_points(path):
    """Integer points of the model polytope <x, normal> >= -offset."""
    with open(path, encoding="utf-8") as fh:
        halfspaces = json.load(fh)["halfspaces"]
    rows = [(h["normal"], Fraction(h["offset"])) for h in halfspaces]
    bound = int(max(abs(o) for _, o in rows))
    dim = len(rows[0][0])
    return [z for z in product(range(-bound, bound + 1), repeat=dim)
            if all(sum(a * b for a, b in zip(z, n)) >= -o for n, o in rows)]


def _qr_toric(argv, doc):
    xi = [int(x) for x in _opt(argv, "--xi").split(",")]
    c = int(_opt(argv, "--c"))
    reduced = sum(1 for z in lattice_points(_opt(argv, "--model"))
                  if sum(a * b for a, b in zip(z, xi)) == c)
    if (doc["mult0"], doc["reduced"]) != (reduced, reduced) \
            or doc["match"] is not True:
        return "mult0 %s, reduced %s, slice count %d" % (
            doc["mult0"], doc["reduced"], reduced)
    return None


def _decompose(argv, doc):
    out_dir = _opt(argv, "--out")
    total = {}
    for comp in doc["components"]:
        with open(os.path.join(out_dir, comp["file"]), encoding="utf-8") as fh:
            lines = fh.read().split("\n")[1:-1]
        if len(lines) != comp["terms"]:
            return "%s has %d terms, report says %d" % (
                comp["file"], len(lines), comp["terms"])
        for line in lines:
            coords, mult = line.split()
            w = tuple(int(x) for x in coords.split(","))
            total[w] = total.get(w, 0) + int(mult)
    total = {w: m for w, m in total.items() if m}
    points = {z: 1 for z in lattice_points(_opt(argv, "--model"))}
    if total != points:
        return "components sum to %d weights, the polytope has %d points" % (
            sum(total.values()), len(points))
    return None


def _qr_coadjoint(argv, doc):
    lam = _opt(argv, "--weight")
    if doc["quantization"] != {lam: 1} or doc["match"] is not True:
        return "Q(O_(%s)) is not V(%s)" % (lam, lam)
    mu = _opt(argv, "--mu")
    if mu is not None:
        want = 1 if _weight(mu) == _weight(lam) else 0
        prod = doc["product"]
        if (prod["multiplicity"], prod["expected"]) != (want, want):
            return "product multiplicity %s, expected %d" % (
                prod["multiplicity"], want)
    return None


def _oracle(argv, doc):
    if doc["kernelIndex"] != doc["diracInduct"]:
        return "kernelIndex %s differs from diracInduct %s" % (
            doc["kernelIndex"], doc["diracInduct"])
    return None


CHECKS = {
    "verify-kostant": _kostant,
    "verify-relative": _relative,
    "char": _char,
    "tensor": _tensor,
    "restrict": _restrict,
    "induct": _induct,
    "polarize": _polarize,
    "qr-toric": _qr_toric,
    "decompose": _decompose,
    "qr-coadjoint": _qr_coadjoint,
    ORACLE: _oracle,
}


def check(argv, code, out):
    """None when the report of ``argv`` is right, else the reason."""
    if code != 0:
        return "exit code %s" % code
    try:
        doc = json.loads(out)
    except ValueError:
        return "report is not JSON"
    try:
        if argv[0] != ORACLE and (doc["subcommand"], doc["normalization"]) \
                != (argv[0], "long-root-2"):
            return "report header does not match the request"
        return CHECKS[argv[0]](argv, doc)
    except (AttributeError, IndexError, KeyError, OSError, TypeError,
            ValueError, ZeroDivisionError) as exc:
        return "malformed report: %s: %s" % (type(exc).__name__, exc)
