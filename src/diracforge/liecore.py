"""Root systems, Weyl groups, and weight arithmetic for types A/B/C/D and tori.

Conventions, fixed once and used by every downstream module:

* Weights are plain tuples in fundamental-weight coordinates (torus
  factors contribute bare character coordinates).  A coordinate is an
  int when it is integral and a Fraction otherwise; the two compare and
  hash equal, so either form names the same weight.
* cartan[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), so row i is the
  fundamental-coordinate vector of the simple root alpha_i and the simple
  reflection is s_i(lam) = lam - lam_i * alpha_i.
* The invariant inner product is normalized so long roots have squared
  length 2 in every simple factor ("long-root-2"); standalone torus blocks
  get the identity gram.  Subgroup systems built by equalRankPair override
  the gram with the one inherited from the ambient group.
* Simple factors follow Bourbaki node ordering.

A RootSystem holds its root data on ints, built once: the simple roots
(the Cartan rows, also kept with their positions as ``reflections``),
the positive roots with their simple-root coefficients
(``intRootCoefficients``, in the same order), rho, and the gram scaled by
the lcm of its denominators (``intGram``, scale ``gramScale``).  Weyl-group
arithmetic, the positive-root closure and every pairing run on them;
``gram`` is the same form as rationals.  A Weyl orbit is walked from its
dominant weight so that each weight is reached once (``dominantOrbit``);
``orbit``, ``weylOrbit`` and ``weylGroupOrder`` walk from
``makeDominant(v)``, so they serve rational v too.
"""

import math
from fractions import Fraction
from operator import mul

from .rationals import rat, ZERO, ONE, coord, rat_str, rat_from_str, \
    is_integer
from .exactmat import ExactMatrix
from .errors import (IncompatiblePair, InternalError, SystemMismatch,
                     UnsupportedType)

# the types of a weight coordinate (see rationals)
_COORDS = frozenset((int, Fraction))

_FAMILIES = ("A", "B", "C", "D", "Torus")


def _cartan_block(family, rank):
    """Integer Cartan matrix rows for one simple factor."""
    if family == "A":
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(rank)] for i in range(rank)]
    if family == "B":  # alpha_1 long, alpha_2 short
        return [[2, -2], [-1, 2]]
    if family == "C":
        return [[2, -1], [-2, 2]]
    if family == "D":  # node 2 is the branch node
        return [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    raise UnsupportedType(family)


def _half_lengths(family, rank):
    """d_i = <alpha_i, alpha_i>/2 under the long-root-2 normalization."""
    if family == "B":
        return [rat(1), rat(1, 2)]
    if family == "C":
        return [rat(1, 2), rat(1)]
    return [rat(1)] * rank


def _check_supported(family, rank):
    ok = ((family == "A" and 1 <= rank <= 4)
          or (family == "B" and rank == 2)
          or (family == "C" and rank == 2)
          or (family == "D" and rank == 4)
          or (family == "Torus" and 0 <= rank <= 4))
    if not ok:
        raise UnsupportedType("unsupported factor %s_%d" % (family, rank))


class WeylElement:
    """A Weyl-group element as a word in simple reflections.

    Applying the reflections in word order (left to right) to the original
    weight produces the image; sign = (-1)^len(word), valid because every
    word produced here is reduced.
    """

    __slots__ = ("word", "sign")

    def __init__(self, word=()):
        self.word = tuple(word)
        self.sign = -1 if len(self.word) % 2 else 1

    def __repr__(self):
        if not self.word:
            return "WeylElement(e)"
        return "WeylElement(%s)" % "*".join("s%d" % (i + 1) for i in self.word)


class RootSystem:
    def __init__(self, factors, gram=None, label=None):
        factors = tuple((f, int(r)) for f, r in factors)
        if not factors:
            raise UnsupportedType("empty factor list")
        for f, r in factors:
            if f not in _FAMILIES:
                raise UnsupportedType("unknown family %r" % (f,))
            _check_supported(f, r)
        self.factors = factors
        self.rank = sum(r for _, r in factors)
        self.label = label if label is not None else self._default_label()

        # global positions of simple-root coordinates, factor by factor, and
        # the one map of coordinates onto factors: coordinateOwner[p] is
        # (factor index, p's index within that factor)
        self.simple_positions = []
        offset = 0
        blocks = []
        owner = []
        for bi, (f, r) in enumerate(factors):
            blocks.append((f, r, offset))
            owner.extend((bi, local) for local in range(r))
            if f != "Torus":
                self.simple_positions.extend(range(offset, offset + r))
            offset += r
        self._blocks = blocks
        self.coordinateOwner = tuple(owner)

        self.cartanMatrix = self._assemble_cartan()
        # s_i(v) = v - v[p] alpha_i, alpha_i the Cartan row as an int weight
        self.reflections = []
        for p, row in zip(self.simple_positions, self.cartanMatrix):
            alpha = [0] * self.rank
            for q, c in zip(self.simple_positions, row):
                alpha[q] = c
            self.reflections.append((p, tuple(alpha)))
        self.simpleRoots = [alpha for _, alpha in self.reflections]
        # one step of the orbit walk per s_i: its position, alpha_i, and
        # alpha_i's coordinates at the positions of the earlier simple roots
        self._orbit_steps = [
            (p, alpha, tuple((q, alpha[q]) for q, _ in self.reflections[:i]))
            for i, (p, alpha) in enumerate(self.reflections)]
        # the one inverse of the Cartan matrix, read by the gram
        n = len(self.simple_positions)
        ainv = ExactMatrix.from_rows(self.cartanMatrix).inverse() \
            if n else None
        self.gram = self._assemble_gram(ainv) if gram is None else \
            [[rat(x) for x in row] for row in gram]
        if len(self.gram) != self.rank or any(len(r) != self.rank for r in self.gram):
            raise SystemMismatch("gram size != rank")
        self.gramScale = math.lcm(*(x.denominator
                                    for row in self.gram for x in row))
        self.intGram = [[int(x * self.gramScale) for x in row]
                        for row in self.gram]
        self._functionals = {}
        self.positiveRoots, self.intRootCoefficients = \
            self._positive_closure()
        simple_set = set(self.simple_positions)
        self.rho = tuple(int(i in simple_set) for i in range(self.rank))
        half = self.rhoFromPositiveRoots()
        if half != self.rho:
            raise InternalError("rho consistency failed: (%s) vs (%s)" % (
                weightString(half), weightString(self.rho)))

    # -- construction helpers --------------------------------------------

    def _default_label(self):
        return "x".join(("T%d" % r if f == "Torus" else "%s%d" % (f, r))
                        for f, r in self.factors)

    def _assemble_cartan(self):
        n = len(self.simple_positions)
        cm = [[0] * n for _ in range(n)]
        base = 0
        for f, r, _ in self._blocks:
            if f == "Torus":
                continue
            block = _cartan_block(f, r)
            for i in range(r):
                for j in range(r):
                    cm[base + i][base + j] = block[i][j]
            base += r
        return cm

    def _assemble_gram(self, ainv):
        """g[p_i][p_j] = d_i (A^-1)_ji on simple positions, the identity on
        torus positions; ainv is A^-1 for the whole Cartan matrix A."""
        g = [[ZERO] * self.rank for _ in range(self.rank)]
        simple_set = set(self.simple_positions)
        for i in range(self.rank):
            if i not in simple_set:
                g[i][i] = ONE
        d = [h for f, r, _ in self._blocks if f != "Torus"
             for h in _half_lengths(f, r)]
        for i, p in enumerate(self.simple_positions):
            for j, q in enumerate(self.simple_positions):
                g[p][q] = d[i] * ainv.get(j, i)[0]
        for i in range(self.rank):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise InternalError("gram not symmetric")
        return g

    def _positive_closure(self):
        """The positive roots as sorted int tuples, and their simple-root
        coefficients in the same order: the simple roots closed under the
        simple reflections, each root carrying its coefficients; a root is
        positive when they are all >= 0."""
        n = len(self.reflections)
        coeffs = {alpha: tuple(int(i == k) for i in range(n))
                  for k, (_, alpha) in enumerate(self.reflections)}
        frontier = list(coeffs)
        while frontier:
            nxt = []
            for v in frontier:
                cv = coeffs[v]
                for i, (p, alpha) in enumerate(self.reflections):
                    c = v[p]
                    if not c:
                        continue
                    w = tuple(x - c * a for x, a in zip(v, alpha))
                    if w not in coeffs:
                        cw = list(cv)
                        cw[i] -= c
                        coeffs[w] = tuple(cw)
                        nxt.append(w)
            frontier = nxt
        roots = tuple(sorted(v for v, cv in coeffs.items() if min(cv) >= 0))
        return roots, tuple(coeffs[v] for v in roots)

    # -- weights ------------------------------------------------------------

    def weight(self, coords):
        """coords as a tuple, checked: ints and Fractions pass as they are,
        any other coordinate (a float, a string, a bool) raises TypeError."""
        if type(coords) is not tuple:
            coords = tuple(coords)
        if not _COORDS.issuperset(map(type, coords)):
            raise TypeError("weight coordinates must be ints or Fractions: %r"
                            % (coords,))
        if len(coords) != self.rank:
            raise SystemMismatch(
                "weight has %d coords, system %s has rank %d"
                % (len(coords), self.label, self.rank))
        return coords

    def zeroWeight(self):
        return (0,) * self.rank

    def isIntegral(self, lam):
        return all(is_integer(c) for c in self.weight(lam))

    def isDominant(self, lam):
        lam = self.weight(lam)
        return all(lam[p] >= 0 for p in self.simple_positions)

    def isDominantRegular(self, lam):
        lam = self.weight(lam)
        return all(lam[p] > 0 for p in self.simple_positions)

    def innerProduct(self, lam, mu):
        return rat(gramPairing(self.intGram, self.weight(lam),
                               self.weight(mu)), self.gramScale)

    def pairingFunctional(self, mu):
        """(a, den): a tuple of ints a and a positive int den with
        <w, mu> = (a . w) / den for every weight w.  Computed once per mu."""
        mu = self.weight(mu)
        out = self._functionals.get(mu)
        if out is None:
            col = [sum((g * m for g, m in zip(row, mu) if m), ZERO)
                   for row in self.gram]
            den = math.lcm(*(c.denominator for c in col))
            out = self._functionals[mu] = (tuple(int(c * den) for c in col),
                                           den)
        return out

    # -- Weyl group ---------------------------------------------------------

    def reflect(self, i, lam):
        """Simple reflection s_i, i indexing simpleRoots."""
        lam = self.weight(lam)
        p, alpha = self.reflections[i]
        c = lam[p]
        if not c:
            return lam
        return tuple(x - c * a for x, a in zip(lam, alpha))

    def makeDominant(self, lam):
        """(dominant weight, w) with w(lam) the dominant weight; each step
        reflects through the first simple root on which lam is negative."""
        lam = self.weight(lam)
        word = []
        while True:
            for i, (p, alpha) in enumerate(self.reflections):
                c = lam[p]
                if c < 0:
                    lam = tuple(x - c * a for x, a in zip(lam, alpha))
                    word.append(i)
                    break
            else:
                return lam, WeylElement(word)

    def dominantOrbit(self, lam):
        """The Weyl orbit of the dominant weight lam as a list, lam first,
        each weight once.

        Every other weight w of the orbit has one parent, s_i w for the
        first simple root alpha_i with w_i < 0, the step makeDominant takes
        (D. Snow, "Weyl group orbits", ACM TOMS 16, 1990).  So from u the
        walk takes s_i u only when u_i > 0 and no earlier simple coordinate
        of s_i u is negative, which it decides on u before building s_i u.
        """
        out = [lam]
        for u in out:  # the walk appends what it finds to the list it reads
            for p, alpha, earlier in self._orbit_steps:
                c = u[p]
                if c > 0:
                    # (s_i u)_q = u_q - c alpha_q
                    for q, a in earlier:
                        if u[q] < c * a:
                            break
                    else:
                        out.append(tuple([x - c * a
                                          for x, a in zip(u, alpha)]))
        return out

    def orbit(self, v):
        """The Weyl orbit of v, a tuple of ints or of rationals, as a list
        with each weight once, the dominant weight first."""
        return self.dominantOrbit(self.makeDominant(v)[0])

    def weylOrbit(self, lam):
        return sorted(self.orbit(lam))

    def weylGroupOrder(self):
        return len(self.orbit(self.rho))

    def rhoFromPositiveRoots(self):
        return tuple(coord(sum(a[i] for a in self.positiveRoots), 2)
                     for i in range(self.rank))

    def __eq__(self, other):
        return (isinstance(other, RootSystem)
                and self.factors == other.factors
                and self.gram == other.gram)

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "RootSystem(%s)" % self.label


def gramPairing(gram, u, v):
    """u G v for the int rows G of a scaled gram (``intGram``) and weights
    u, v: the inner product times the gram's scale."""
    return sum(a * g * b for a, row in zip(u, gram) for g, b in zip(row, v))


def _int_rows(mat):
    """(rows, den): the entries of a real ExactMatrix as int rows over one
    positive int denominator."""
    rows = [[mat.get(i, j)[0] for j in range(mat.ncols)]
            for i in range(mat.nrows)]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


# ---------------------------------------------------------------- builders

def systemFromLabel(label):
    """Parse labels like "A2", "T1", "A1xT1", "Torus2"."""
    factors = []
    for part in label.split("x"):
        part = part.strip()
        if part.startswith("Torus"):
            fam, num = "Torus", part[5:]
        elif part[:1] in ("A", "B", "C", "D"):
            fam, num = part[0], part[1:]
        elif part[:1] == "T":
            fam, num = "Torus", part[1:]
        else:
            raise UnsupportedType("cannot parse factor %r" % part)
        if not num.isdigit():
            raise UnsupportedType("cannot parse rank in %r" % part)
        factors.append((fam, int(num)))
    return RootSystem(factors)


def weightToStrings(lam):
    return [rat_str(c) for c in lam]


def weightString(lam):
    """lam as "p/q,...", the form of every report and witness."""
    return ",".join(weightToStrings(lam))


def weightFromStrings(parts):
    return tuple(rat_from_str(p) for p in parts)


# ------------------------------------------------------------ equal-rank pairs

def _integer_kernel(rows, n):
    """Basis of {c in Z^n : M c = 0} for an integer matrix given by rows.

    Column-reduction with unimodular operations; the returned vectors are a
    lattice basis of the full kernel (saturated), not merely Q-independent
    integer solutions.
    """
    m = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    fixed = 0  # columns consumed by pivots

    def colop_sub(j, k, q):  # col_j -= q * col_k
        for row in m:
            row[j] -= q * row[k]
        for row in u:
            row[j] -= q * row[k]

    def colswap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in u:
            row[j], row[k] = row[k], row[j]

    for r in range(len(m)):
        while True:
            live = [j for j in range(fixed, n) if m[r][j] != 0]
            if not live:
                break
            piv = min(live, key=lambda j: abs(m[r][j]))
            done = True
            for j in live:
                if j == piv:
                    continue
                q = m[r][j] // m[r][piv]
                colop_sub(j, piv, q)
                if m[r][j] != 0:
                    done = False
            if done:
                colswap(fixed, piv)
                fixed += 1
                break
    basis = []
    for j in range(fixed, n):
        vec = [u[i][j] for i in range(n)]
        lead = next((x for x in vec if x != 0), 1)
        if lead < 0:
            vec = [-x for x in vec]
        basis.append(vec)
    return basis


class EqualRankPair:
    """An equal-rank subgroup H of G sharing the maximal torus.

    H is described by the subset of simple roots of G it keeps; the
    complement of the kept coroots contributes central torus coordinates.
    Coordinates of H-weights: kept fundamental coordinates first (in G
    order), then the integral central charges, then the coordinates of G's
    own torus factors.  The gram on H-coordinates is inherited from G, so
    norms agree on the shared torus.
    """

    def __init__(self, g, keep, label=None):
        self.g = g
        keep = tuple(sorted(set(keep)))
        nsimple = len(g.simple_positions)
        if any(k < 0 or k >= nsimple for k in keep):
            raise IncompatiblePair("keep index out of range")
        self.keep = keep
        self.label = label

        units = [[int(i == j) for j in range(g.rank)] for i in range(g.rank)]
        if len(keep) == nsimple:
            self.h = g
            self._toH, self._toG = units, (units, 1)
        else:
            if any(f == "Torus" for f, _ in g.factors) and keep:
                raise IncompatiblePair(
                    "proper keep-subsets are supported for pure simple groups")
            if keep and any(f != "A" for f, _ in g.factors):
                raise IncompatiblePair(
                    "proper keep-subsets are supported for type A factors")
            rows = [g.cartanMatrix[s] for s in keep]
            charges = (_integer_kernel(rows, nsimple) if keep
                       else [[1 if j == i else 0 for j in range(nsimple)]
                             for i in range(nsimple)])
            if len(charges) != nsimple - len(keep):
                raise IncompatiblePair("central charge lattice has wrong rank")
            hfactors = []
            run = 0
            for idx in range(nsimple + 1):
                if idx < nsimple and idx in keep:
                    run += 1
                    continue
                if run:
                    hfactors.append(("A", run))
                    run = 0
            # G's own torus coordinates follow the central charges
            torus = [i for i in range(g.rank) if i not in g.simple_positions]
            ncharges = len(charges) + len(torus)
            if ncharges:
                hfactors.append(("Torus", ncharges))
            toH = [units[g.simple_positions[s]] for s in keep]
            for c in charges:
                row = [0] * g.rank
                for p, cj in zip(g.simple_positions, c):
                    row[p] = cj
                toH.append(row)
            toH += [units[t] for t in torus]
            self._toH = toH
            toG = ExactMatrix.from_rows(toH).inverse()
            gramH = toG.transpose() * ExactMatrix.from_rows(g.gram) * toG
            self.h = RootSystem(hfactors, gram=[
                [gramH.get(i, j)[0] for j in range(g.rank)]
                for i in range(g.rank)])
            self._toG = _int_rows(toG)

        keepset = set(keep)
        self.pRoots = tuple(
            a for a, coeffs in zip(g.positiveRoots, g.intRootCoefficients)
            if any(c for j, c in enumerate(coeffs) if j not in keepset))

        # _toH is an int matrix, so rho_G - rho_H is an int H-weight
        self.rhoG_H = self.weightToH(g.rho)
        self.shift = tuple(a - b for a, b in zip(self.rhoG_H, self.h.rho))

    def weightToH(self, lam):
        """H-coordinates of a G-weight: one int row of _toH per coordinate."""
        lam = self.g.weight(lam)
        return tuple(sum(map(mul, row, lam)) for row in self._toH)

    def weightToG(self, lam):
        """G-coordinates of an H-weight: _toG is int rows over one den."""
        lam = self.h.weight(lam)
        rows, den = self._toG
        return tuple(coord(sum(map(mul, row, lam)), den) for row in rows)

    def __repr__(self):
        return "EqualRankPair(%s)" % (self.label or
                                      "%s:keep=%s" % (self.g.label, list(self.keep)))


def equalRankPair(g, spec):
    """Build a pair from a short spec: "T", "full", "u2", or "keep=0,2"."""
    nsimple = len(g.simple_positions)
    if spec in ("T", "torus"):
        return EqualRankPair(g, (), label="%s:T" % g.label)
    if spec in ("full", "g"):
        return EqualRankPair(g, range(nsimple), label="%s:full" % g.label)
    if spec == "u2":
        if g.factors != (("A", 2),):
            raise IncompatiblePair("the u2 shorthand applies to A2 only")
        return EqualRankPair(g, (0,), label="A2:u2")
    if spec.startswith("keep="):
        keep = tuple(_keep_index(t) for t in spec[5:].split(",") if t != "")
        return EqualRankPair(g, keep,
                             label="%s:keep=%s" % (g.label, spec[5:]))
    raise IncompatiblePair("unknown pair spec %r" % spec)


def _keep_index(token):
    try:
        return int(token)
    except ValueError:
        raise IncompatiblePair("keep index %r is not an integer"
                               % token) from None


def pairFromLabel(label):
    gpart, _, hpart = label.partition(":")
    if not hpart:
        raise IncompatiblePair("pair label must look like G:H, got %r" % label)
    return equalRankPair(systemFromLabel(gpart), hpart)
