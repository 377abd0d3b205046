"""The square-discriminant residue by a zero and its unimodular completion.

This is the way ``forms.square_residue`` used to work: find a primitive
zero (x0, y0) of f, complete it to a matrix of SL2(Z) by an extended gcd,
substitute, and read the residue off (0, +-N, c').  The library now
writes the substituted coefficient out in closed form; the tests keep
this construction as a reference, ``extend_unimodular`` for building
SL2(Z) elements, and ``substitute`` for moving a form by any integer
matrix.
"""

from math import gcd, isqrt

from qforms.forms import Form, Mat2, _ext_gcd, content, discriminant


def substitute(f, m11, m12, m21, m22):
    """f((x, y) -> (m11*x + m12*y, m21*x + m22*y)) for any integer matrix."""
    a = f(m11, m21)
    c = f(m12, m22)
    b = 2 * f.a * m11 * m12 + f.b * (m11 * m22 + m12 * m21) + 2 * f.c * m21 * m22
    return Form(a, b, c)


def extend_unimodular(x0, y0):
    """Some g in SL2(Z) whose first column is the primitive vector (x0, y0)."""
    g0, u, v = _ext_gcd(x0, y0)
    if g0 != 1:
        raise ValueError("vector is not primitive")
    # x0 * u + y0 * v = 1, so ((x0, -v), (y0, u)) has determinant 1
    return Mat2(x0, -v, y0, u)


def primitive_zero(f, N):
    """A primitive (x0, y0) with f(x0, y0) = 0, for disc(f) = N^2."""
    if f.a == 0:
        return (1, 0)
    # f = a (x - r1 y)(x - r2 y) with r1 = (-b + N) / (2a)
    num, den = -f.b + N, 2 * f.a
    g = gcd(num, den)
    x0, y0 = num // g, den // g
    if y0 < 0:
        x0, y0 = -x0, -y0
    return (x0, y0)


def square_residue_by_zero(f):
    """(N, a mod N) with the primitive f ~ a x^2 + N x y, disc(f) = N^2."""
    D = discriminant(f)
    N = isqrt(D)
    if D <= 0 or N * N != D or content(f) != 1:
        raise ValueError(f"{f} is not a primitive form of square discriminant")
    g0 = extend_unimodular(*primitive_zero(f, N))
    f1 = substitute(f, g0.m11, g0.m12, g0.m21, g0.m22)
    # f1 = (0, +-N, c1); swap via S to put the zero coefficient last
    if f1.b == -N:
        return (N, f1.c % N)
    # (c1, -N, 0) ~ Q_{N, c1^-1 mod N}; gcd(c1, N) = 1 as f1 is primitive
    return (N, pow(f1.c, -1, N))
