"""Dense matrix kernels over Q and Q(i): the tests' reference.

No package module imports them; ExactMatrix computes on its own sparse
int rows.  They stay as the tests' oracle until a benchmark change moves
them under ``tests/`` (``perfbench`` names them).  Entries are
``Fraction``; a complex matrix is carried as two parallel flat row-major
lists.  These functions are deliberately dumb: no views, no pivot
heuristics beyond "first nonzero".
"""

# read by the benchmark environment record (perfbench/run.py)
BACKEND_NAME = "python"


def mul_real(a, b, n, m, k, zero):
    """(n x m) @ (m x k) over one scalar component. Flat row-major lists."""
    out = [zero] * (n * k)
    for i in range(n):
        arow = i * m
        orow = i * k
        for t in range(m):
            x = a[arow + t]
            if not x:
                continue
            brow = t * k
            for j in range(k):
                y = b[brow + j]
                if y:
                    out[orow + j] += x * y
    return out


def mul_cplx(ar, ai, br, bi, n, m, k, zero):
    """Fused complex product; returns (real, imag) flat lists."""
    outr = [zero] * (n * k)
    outi = [zero] * (n * k)
    for i in range(n):
        arow = i * m
        orow = i * k
        for t in range(m):
            xr = ar[arow + t]
            xi = ai[arow + t]
            if not xr and not xi:
                continue
            brow = t * k
            for j in range(k):
                yr = br[brow + j]
                yi = bi[brow + j]
                if yr or yi:
                    p = orow + j
                    outr[p] += xr * yr - xi * yi
                    outi[p] += xr * yi + xi * yr
    return outr, outi


def rref_cplx(rr, ri, nrows, ncols, zero, one):
    """Reduced row echelon form over Q(i), in place on row lists.

    rr, ri are lists of row lists (real and imaginary parts).  Returns the
    list of pivot column indices.  Division by a Gaussian rational uses the
    conjugate over the squared norm, so everything stays exact.
    """
    pivots = []
    row = 0
    for col in range(ncols):
        sel = -1
        for r in range(row, nrows):
            if rr[r][col] or ri[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != row:
            rr[row], rr[sel] = rr[sel], rr[row]
            ri[row], ri[sel] = ri[sel], ri[row]
        pr = rr[row][col]
        pi = ri[row][col]
        nrm = pr * pr + pi * pi
        # multiply the row by conj(pivot)/|pivot|^2
        fr = pr / nrm
        fi = -pi / nrm
        rrow = rr[row]
        irow = ri[row]
        for j in range(col, ncols):
            xr = rrow[j]
            xi = irow[j]
            if xr or xi:
                rrow[j] = xr * fr - xi * fi
                irow[j] = xr * fi + xi * fr
        rrow[col] = one
        irow[col] = zero
        for r in range(nrows):
            if r == row:
                continue
            cr = rr[r][col]
            ci = ri[r][col]
            if not cr and not ci:
                continue
            trow = rr[r]
            tirow = ri[r]
            for j in range(col, ncols):
                xr = rrow[j]
                xi = irow[j]
                if xr or xi:
                    trow[j] -= cr * xr - ci * xi
                    tirow[j] -= cr * xi + ci * xr
            trow[col] = zero
            tirow[col] = zero
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots
