"""Row Hermite normal form by repeated smallest-remainder steps.

This is how ``lattice._row_hnf`` used to eliminate a column: move the
row with the smallest nonzero entry to the pivot position, subtract its
quotient multiple from every row below, and repeat until only the pivot
is left.  Each Euclid quotient costs a whole-row update.  The tests use
it as a reference for the one-extended-gcd-step-per-row-pair version.
"""


def row_hnf(mat):
    """(H, U, det_U) with U unimodular, U @ mat = H in row Hermite form."""
    h = [row[:] for row in mat]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    det_u = 1
    r = 0
    for j in range(n):
        if r == m:
            break
        # Euclidean elimination in column j, rows r..m-1
        while True:
            nonzero = [i for i in range(r, m) if h[i][j] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(h[i][j]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
                det_u = -det_u
            if all(h[i][j] == 0 for i in range(r + 1, m)):
                break
            for i in range(r + 1, m):
                if h[i][j] != 0:
                    q = h[i][j] // h[r][j]
                    h[i] = [h[i][k] - q * h[r][k] for k in range(n)]
                    u[i] = [u[i][k] - q * u[r][k] for k in range(m)]
        if h[r][j] == 0:
            continue
        if h[r][j] < 0:
            h[r] = [-v for v in h[r]]
            u[r] = [-v for v in u[r]]
            det_u = -det_u
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [h[i][k] - q * h[r][k] for k in range(n)]
                u[i] = [u[i][k] - q * u[r][k] for k in range(m)]
        r += 1
    return h, u, det_u


def kernel_basis(rows):
    """Basis of the integer kernel {v : M v = 0}, through ``row_hnf``."""
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    h, u, _ = row_hnf(transposed)
    return [u[i] for i in range(len(h)) if all(v == 0 for v in h[i])]
