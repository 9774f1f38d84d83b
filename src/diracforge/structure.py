"""Compact frames: explicit matrix models of the Lie algebra.

A CompactFrame carries an orthogonal (not orthonormal) basis of the compact
form, realized in the block-diagonal defining representation:

    iH_p          for each Cartan coordinate p (simple coroot or torus line),
    A_b = E - F   and
    B_b = i(E + F) for each positive root b.

All entries are Gaussian rationals.  The invariant form is B(X,Y) = -tr(XY)
on the defining blocks; for type A factors this gives long roots squared
length 2 on the nose, and torus lines the identity gram, so frame norms agree
exactly with the weight-space normalization.  Basis-summed operator formulas
downstream contract through the inverse of the frame gram instead of
pretending the frame is orthonormal.

The frame owns its layout, and every other module reads it instead of
decoding direction names or block offsets.  units[a] is direction a as gl
units (factor, j, k, z), z times E_jk of that factor's block, where a
torus factor's units are its diagonal lines; rootPairs[i] holds the
indices of (A_b, B_b) for the i-th positive root b of the system; and
matrices place the units on the defining blocks.  All three come from one
walk over the system's one coordinate -> factor map,
RootSystem.coordinateOwner.

Only type A simple factors (plus tori) have defining blocks here; the
B/C/D root systems stay available in liecore but have no frame.  The split
of a frame along an equal-rank pair lives in clifford.PairSpinors, its one
consumer.
"""

from .errors import BadStructureConstants, InternalError, UnsupportedType
from .exactmat import ExactMatrix, combination, commutator
from .rationals import ONE, ZERO, rat_str

CARTAN, ROOT_A, ROOT_B = "iH", "A", "B"


def _direction_str(name):
    """A frame direction name as text: "iH0", "A(2,-1)" or "B(2,-1)"."""
    kind, label = name
    if kind == CARTAN:
        return "%s%d" % (kind, label)
    return "%s(%s)" % (kind, ",".join(map(rat_str, label)))


class CompactFrame:
    """Orthogonal frame of the compact form of a (type A + torus) system."""

    def __init__(self, rs):
        for fam, rank in rs.factors:
            if fam not in ("A", "Torus"):
                raise UnsupportedType(
                    "no defining-block frame for family %s; "
                    "only type A factors and tori carry one" % fam)
        self.system = rs
        self._build_directions()
        self._build_gram()
        self._brackets = None

    # ------------------------------------------------------------ directions

    def _build_directions(self):
        """names, units, rootPairs and matrices in one walk over the
        coordinates and the positive roots."""
        rs = self.system
        offsets = []  # the first row of each factor's block
        n = 0
        for fam, rank in rs.factors:
            offsets.append(n)
            n += rank + 1 if fam == "A" else rank
        self.matrixSize = n

        one, i = (ONE, ZERO), (ZERO, ONE)
        names = []
        units = []
        for p, (bi, local) in enumerate(rs.coordinateOwner):
            # a torus line e_ii, or a simple coroot H = e_ii - e_{i+1,i+1},
            # taken times i
            line = ((bi, local, local, i),)
            if rs.factors[bi][0] == "A":
                line += ((bi, local + 1, local + 1, (ZERO, -ONE)),)
            names.append((CARTAN, p))
            units.append(line)

        pairs = []
        for beta, coeffs in zip(rs.positiveRoots, rs.intRootCoefficients):
            # the root's simple coordinates, in order, inside one factor
            owners = [rs.coordinateOwner[p]
                      for p, c in zip(rs.simple_positions, coeffs) if c]
            bi = owners[0][0]
            if any(f != bi for f, _ in owners):
                raise BadStructureConstants("root crosses factor blocks")
            if any(c not in (0, 1) for c in coeffs):
                raise BadStructureConstants("not an A-family positive root")
            j, k = owners[0][1], owners[-1][1] + 1
            if len(owners) != k - j:
                raise BadStructureConstants("root support is not an interval")
            # b = eps_j - eps_k: A_b = E_jk - E_kj and B_b = i(E_jk + E_kj)
            pairs.append((len(names), len(names) + 1))
            names += [(ROOT_A, beta), (ROOT_B, beta)]
            units += [((bi, j, k, one), (bi, k, j, (-ONE, ZERO))),
                      ((bi, j, k, i), (bi, k, j, i))]

        self.names = tuple(names)
        self.units = tuple(units)
        self.rootPairs = tuple(pairs)
        self.matrices = tuple(
            ExactMatrix.from_entries(n, n, {
                (offsets[bi] + j, offsets[bi] + k): z
                for bi, j, k, z in line}) for line in units)
        self.dim = len(units)

    # ------------------------------------------------------------------ form

    def _build_gram(self):
        """The invariant form B(x, y) = -tr(xy) on the frame, as products:
        row a of the pairing is u_a^T read row-major, so the pairing times
        y read as a column lists tr(u_a y)."""
        d, n2 = self.dim, self.matrixSize ** 2
        pairing = ExactMatrix.vstack(
            [x.transpose().reshape(1, n2) for x in self.matrices], n2)
        cols = ExactMatrix.vstack(
            [x.reshape(1, n2) for x in self.matrices], n2).transpose()
        gm = -(pairing * cols)
        g = [[gm.get(a, b)[0] for b in range(d)] for a in range(d)]
        if any(gm.get(a, b)[1] for a in range(d) for b in range(d)):
            raise BadStructureConstants("form produced an imaginary trace")
        # root directions must be orthogonal to everything but themselves,
        # with squared length 2; the Cartan block is the coroot gram
        for a in range(d):
            na = self.names[a]
            for b in range(d):
                if a == b:
                    continue
                if (na[0], self.names[b][0]) != (CARTAN, CARTAN) \
                        and g[a][b] != 0:
                    raise InternalError(
                        "frame directions %s and %s are not orthogonal"
                        % (_direction_str(na), _direction_str(self.names[b])))
            if na[0] != CARTAN and g[a][a] != 2:
                raise InternalError("root direction %s has squared length"
                                    " %s, not 2" % (_direction_str(na),
                                                    rat_str(g[a][a])))
        self.gram = tuple(tuple(row) for row in g)
        self.gramInverse = gm.inverse()
        if self.gramInverse is None:
            raise InternalError("the frame gram is singular")
        # coordinates over the frame through the dual frame: x = sum_c x_c
        # u_c with x_c = sum_e (G^-1)_{ce} B(x, u_e)
        self._dual = -(self.gramInverse * pairing)

    # -------------------------------------------------------------- brackets

    def bracketCoefficients(self, a, b):
        """[u_a, u_b] expanded over the frame, via the dual frame."""
        if self._brackets is None:
            self._brackets = self._bracket_table()
        return self._brackets[a][b]

    def _bracket_table(self):
        """Every [u_a, u_b] over the frame, from three products.  Read
        row-major, ad(u_a) acts as u_a (x) 1 - 1 (x) u_a^T, so one product
        gives every commutator, one row per (b, a) after a reshape; the
        dual frame expands them all at once; and the frame must close: the
        real coefficients times the frame give the commutators back
        exactly."""
        d, n = self.dim, self.matrixSize
        n2 = n * n
        rows = ExactMatrix.vstack([x.reshape(1, n2) for x in self.matrices],
                                  n2)
        ident = ExactMatrix.identity(n)
        ads = ExactMatrix.vstack([x.kron(ident) - ident.kron(x.transpose())
                                  for x in self.matrices], n2)
        # row b * d + a: [u_a, u_b] read row-major
        comms = (ads * rows.transpose()).transpose().reshape(d * d, n2)
        real = {key: z[0] for key, z in
                (comms * self._dual.transpose()).nonzero().items() if z[0]}
        table = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
        for (i, c), x in real.items():
            table[i % d][i // d][c] = x
        table = [[tuple(coef) for coef in row] for row in table]
        if ExactMatrix.from_entries(d * d, d, real) * rows != comms:
            a, b = next((a, b) for a, row in enumerate(table)
                        for b, coef in enumerate(row)
                        if combination(coef, self.matrices, n) != commutator(
                            self.matrices[a], self.matrices[b]))
            raise BadStructureConstants(
                "bracket of %s and %s left the frame span"
                % (_direction_str(self.names[a]),
                   _direction_str(self.names[b])))
        return table


def buildFrame(rs):
    """The frame of rs, built once and kept on rs: every representation
    and pair of the system shares it and its bracket table."""
    frame = getattr(rs, "_frame", None)
    if frame is None:
        frame = rs._frame = CompactFrame(rs)
    return frame

