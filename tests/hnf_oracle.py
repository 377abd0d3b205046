"""Row Hermite normal forms with a unimodular transform, two ways.

``row_hnf`` eliminates a column by repeated smallest-remainder steps:
move the row with the smallest nonzero entry to the pivot position,
subtract its quotient multiple from every row below, and repeat until
only the pivot is left.  Each Euclid quotient costs a whole-row update.

``row_hnf_xgcd`` clears each entry below a pivot with one 2x2
extended-gcd step instead.  It is how the library computed plane bases
and Klein kernels before it read them off the Plucker coordinates, and
``klein_oracle`` still uses it.  The tests hold the two against each
other.
"""

from math import gcd


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


def row_hnf_xgcd(mat):
    """(H, U, det_U) with U unimodular, U @ mat = H in row Hermite form.

    Each column is cleared below its pivot row r by one extended-gcd step
    per nonzero row i: with g = gcd(h_rj, h_ij), a = h_rj / g, b = h_ij / g
    and any x, y with x a + y b = 1 (x = a^-1 mod |b|), the pair
    (row r, row i) becomes (x row r + y row i, a row i - b row r), a 2x2
    step of determinant 1.  Pivots are positive, entries above a pivot
    are reduced into [0, pivot); zero rows sink to the bottom.  det_U is
    +-1.
    """
    h = [row[:] for row in mat]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    det_u = 1
    r = 0
    for j in range(n):
        if r == m:
            break
        i0 = next((i for i in range(r, m) if h[i][j] != 0), None)
        if i0 is None:
            continue
        if i0 != r:
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            det_u = -det_u
        for i in range(r + 1, m):
            if h[i][j] != 0:
                g = gcd(h[r][j], h[i][j])
                a, b = h[r][j] // g, h[i][j] // g
                x = pow(a, -1, abs(b))  # 0 when b = +-1
                y = (1 - x * a) // b
                hr, hi, ur, ui = h[r], h[i], u[r], u[i]
                h[r] = [x * s + y * t for s, t in zip(hr, hi)]
                h[i] = [a * t - b * s for s, t in zip(hr, hi)]
                u[r] = [x * s + y * t for s, t in zip(ur, ui)]
                u[i] = [a * t - b * s for s, t in zip(ur, ui)]
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


def kernel_basis(rows, hnf=row_hnf):
    """Basis of the integer kernel {v : M v = 0}, through the given HNF.

    M is given by its rows.  A kernel is automatically saturated, so the
    result spans a direct summand.
    """
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    h, u, _ = hnf(transposed)
    return [u[i] for i in range(len(h)) if all(v == 0 for v in h[i])]
