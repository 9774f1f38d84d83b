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

Only type A simple factors (plus tori) have defining blocks here; the
B/C/D root systems stay available in liecore but have no frame.  The split
of a frame along an equal-rank pair lives in clifford.PairSpinors, its one
consumer.
"""

from .errors import BadStructureConstants, InternalError, UnsupportedType
from .exactmat import ExactMatrix, combination, commutator
from .rationals import rat, rat_str, ZERO

CARTAN, ROOT_A, ROOT_B = "iH", "A", "B"


def _a_root_span(factor_rank, coeffs):
    """Positive A_m root with simple coefficients (0..1 run) -> (j, k) with
    b = eps_j - eps_k on the factor's diagonal block."""
    ones = [i for i, c in enumerate(coeffs) if c == 1]
    if not ones or any(c not in (0, 1) for c in coeffs):
        raise BadStructureConstants("not an A-family positive root")
    j, top = ones[0], ones[-1]
    if ones != list(range(j, top + 1)):
        raise BadStructureConstants("root support is not an interval")
    return j, top + 1


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
        rs = self.system
        blocks = []   # (offset, size) per factor
        offset = 0
        for fam, rank in rs.factors:
            size = rank + 1 if fam == "A" else 1  # torus factors split below
            if fam == "Torus":
                blocks.append(("Torus", offset, rank))
                offset += rank
            else:
                blocks.append(("A", offset, size))
                offset += size
        self.matrixSize = offset
        self.factorBlocks = tuple(blocks)

        # coordinate position -> owning factor block and local index
        owner = {}
        pos = 0
        for bi, (fam, rank) in enumerate(rs.factors):
            for local in range(rank):
                owner[pos] = (bi, local)
                pos += 1

        names = []
        mats = []
        dir_factor = []
        n = self.matrixSize
        for p in range(rs.rank):
            bi, local = owner[p]
            dir_factor.append(bi)
            fam, boff, _ = blocks[bi]
            m = ExactMatrix.zeros(n, n)
            if fam == "A":
                # simple coroot H = e_ii - e_{i+1,i+1}, taken times i
                m.put(boff + local, boff + local, (ZERO, rat(1)))
                m.put(boff + local + 1, boff + local + 1, (ZERO, rat(-1)))
            else:
                m.put(boff + local, boff + local, (ZERO, rat(1)))
            names.append((CARTAN, p))
            mats.append(m)

        simple_set = rs.simple_positions
        factor_of_simple = {}
        idx = 0
        pos = 0
        for bi, (fam, rank) in enumerate(rs.factors):
            for local in range(rank):
                if fam == "A":
                    factor_of_simple[pos] = (bi, local)
                pos += 1

        for beta, coeffs in zip(rs.positiveRoots, rs.intRootCoefficients):
            # locate the unique simple factor carrying this root
            support = [i for i, c in enumerate(coeffs) if c]
            bi0, _ = factor_of_simple[simple_set[support[0]]]
            fam, boff, bsize = blocks[bi0]
            local_coeffs = []
            for i, c in enumerate(coeffs):
                bi, local = factor_of_simple[simple_set[i]]
                if bi == bi0:
                    local_coeffs.append(c)
                elif c:
                    raise BadStructureConstants("root crosses factor blocks")
            j, k = _a_root_span(bsize - 1, local_coeffs)
            e = ExactMatrix.zeros(n, n)
            e.put(boff + j, boff + k, rat(1))
            f = ExactMatrix.zeros(n, n)
            f.put(boff + k, boff + j, rat(1))
            a_mat = e - f
            b_mat = (e + f).scale((ZERO, rat(1)))
            names.append((ROOT_A, beta))
            mats.append(a_mat)
            names.append((ROOT_B, beta))
            mats.append(b_mat)
            dir_factor.extend((bi0, bi0))

        self.directionFactor = tuple(dir_factor)
        self.names = tuple(names)
        self.matrices = tuple(mats)
        self.dim = len(mats)
        self._index = {nm: i for i, nm in enumerate(names)}

    def index(self, name):
        return self._index[name]

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
                % (self.names[a], self.names[b]))
        return table


def buildFrame(rs):
    """The frame of rs, built once and kept on rs: every representation
    and pair of the system shares it and its bracket table."""
    frame = getattr(rs, "_frame", None)
    if frame is None:
        frame = rs._frame = CompactFrame(rs)
    return frame

