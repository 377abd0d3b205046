import random

import pytest
from hypothesis import assume, strategies as st

from qforms.compose import class_bar, class_compose, identity_class
from qforms.cube import Cube
from qforms.errors import DomainError, NotPrimitive
from qforms.forms import Form, Mat2, act, content, discriminant
from qforms.lattice import KleinPair, Plane, gross
from square_oracle import extend_unimodular

from math import gcd, isqrt


# Generators of SL2(Z) for the brute-force orbit oracles and random words
GEN_S = Mat2(0, -1, 1, 0)
GEN_T = Mat2(1, 1, 0, 1)
GEN_T_INV = Mat2(1, -1, 0, 1)


def mat_add(x, y):
    """The entrywise sum x + y of two Mat2 (vectors of Z^4)."""
    return Mat2(x.m11 + y.m11, x.m12 + y.m12, x.m21 + y.m21, x.m22 + y.m22)


def mat_sub(x, y):
    """The entrywise difference x - y of two Mat2."""
    return Mat2(x.m11 - y.m11, x.m12 - y.m12, x.m21 - y.m21, x.m22 - y.m22)


def mat_scale(x, k):
    """The entrywise multiple k x of a Mat2."""
    return Mat2(k * x.m11, k * x.m12, k * x.m21, k * x.m22)


def mat_identity():
    return Mat2(1, 0, 0, 1)


def mat_from_rows(rows):
    """The Mat2 of ((m11, m12), (m21, m22))."""
    (a, b), (c, d) = rows
    return Mat2(a, b, c, d)


def class_power(s, n):
    """s**n for primitive s; n < 0 through the inverse [bar(q)]."""
    if n < 0:
        if s.content != 1:
            raise NotPrimitive("inversion is defined for primitive classes only")
        return class_power(class_bar(s), -n)
    result = identity_class(s.disc)
    base = s
    while n:
        if n & 1:
            result = class_compose(result, base)
        n >>= 1
        if n:
            base = class_compose(base, base)
    return result


# Readers of the JSON documents of the CLI: a plane by its basis
# coordinates, a Klein pair by its matrix rows, a cube by its entries


def plane_from_dict(doc):
    b1, b2 = doc["basis"]
    return Plane.from_basis(Mat2.from_coords(*b1), Mat2.from_coords(*b2))


def pair_from_dict(doc):
    return KleinPair(mat_from_rows(doc["a1"]), mat_from_rows(doc["a2"]))


def cube_from_dict(doc):
    return Cube(tuple(doc["entries"]))


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_form(rng, lo=-10, hi=10):
    """A nonzero form with nonzero discriminant."""
    while True:
        t = (rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi))
        if t != (0, 0, 0) and t[1] * t[1] - 4 * t[0] * t[2] != 0:
            return Form(*t)


def random_sl2(rng, length=8):
    g = mat_identity()
    for _ in range(rng.randint(1, length)):
        g = g @ rng.choice((GEN_S, GEN_T, GEN_T_INV))
    return g


@st.composite
def sl2_matrices(draw, bound):
    """SL2(Z) elements (p, *; q, *) times a shear, entries up to about bound^2."""
    p, q, t = (draw(st.integers(-bound, bound)) for _ in range(3))
    assume(gcd(p, q) == 1)
    return extend_unimodular(p, q) @ Mat2(1, t, 0, 1)


@st.composite
def large_sl2_matrices(draw, bound):
    """Like sl2_matrices, with |p|, |q|, |t| near bound: entries of about bound^2."""
    p, q, t = (draw(st.integers(bound // 2, bound)) * draw(st.sampled_from((1, -1)))
               for _ in range(3))
    g = gcd(p, q)
    return extend_unimodular(p // g, q // g) @ Mat2(1, t, 0, 1)


@st.composite
def same_disc_pairs(draw, bound):
    """Two primitive forms of one nonzero discriminant, coefficients up to about bound.

    The second form is (a2, b2, m / a2) with m = (b2^2 - D) / 4 and a2 a
    divisor of m, so the two forms usually lie in different classes.
    """
    coeff = st.integers(-bound, bound)
    a1, b1, c1 = draw(coeff), draw(coeff), draw(coeff)
    d = b1 * b1 - 4 * a1 * c1
    assume(d != 0)
    f1 = Form(a1, b1, c1)
    assume(content(f1) == 1)
    b2 = 2 * draw(st.integers(-bound // 2, bound // 2)) + d % 2  # b2^2 = d mod 4
    assume(b2 * b2 != d)
    m = (b2 * b2 - d) // 4
    a2 = draw(st.sampled_from([a for a in range(1, min(abs(m), bound) + 1) if m % a == 0]))
    a2 *= draw(st.sampled_from((1, -1)))
    f2 = Form(a2, b2, m // a2)
    assume(content(f2) == 1)
    return f1, f2


def random_klein_pair(rng, lo=-10, hi=10):
    """A pair-primitive Klein pair with equal nonzero determinants."""
    while True:
        f1 = random_form(rng, lo, hi)
        d = discriminant(f1)
        a2, b2 = rng.randint(lo, hi), rng.randint(lo, hi)
        if a2 == 0 or (b2 * b2 - d) % (4 * a2):
            continue
        c2 = (b2 * b2 - d) // (4 * a2)
        f2 = Form(a2, b2, c2)
        if gcd(content(f1), content(f2)) == 1:
            return KleinPair(gross(f1), gross(f2))


def forms_of_disc(d, bound):
    """All forms of discriminant d with |a|, |b| <= bound (c determined)."""
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0:
                if b * b == d:
                    out.extend(Form(0, b, c) for c in range(-bound, bound + 1)
                               if (b, c) != (0, 0))
                continue
            if (b * b - d) % (4 * a) == 0:
                out.append(Form(a, b, (b * b - d) // (4 * a)))
    return out


def outcome(fn, *args):
    """("ok", value) or ("err", the DomainError code)."""
    try:
        return ("ok", fn(*args))
    except DomainError as exc:
        return ("err", exc.code)


def primitive_form(draw, disc):
    """A primitive form (a, b, (b^2 - disc)/4a) of discriminant disc."""
    b = 2 * draw(st.integers(-300, 300)) + disc % 2
    m = (b * b - disc) // 4
    if m == 0:  # disc = b^2: (a, b, 0) for any a
        a = draw(st.integers(1, 300))
    else:
        a = draw(st.sampled_from([a for a in range(1, min(abs(m), 1000) + 1) if m % a == 0]))
    a *= draw(st.sampled_from((1, -1)))
    f = Form(a, b, (b * b - disc) // (4 * a))
    assume(content(f) == 1)
    return f


@st.composite
def regime_forms(draw):
    """Two forms m1 g1 and m2 g2 of one discriminant D = (m1 m2)^2 D0 with
    coprime contents m1, m2, each moved by an SL2(Z) element with entries
    of about 10^20; D0 < 0, D0 > 0 not a square, or D0 a square."""
    regime = draw(st.sampled_from(("definite", "indefinite", "square")))
    m1, m2 = draw(st.sampled_from(((1, 1), (1, 1), (2, 1), (1, 3), (3, 4), (5, 2))))
    if regime == "square":
        d0 = draw(st.integers(1, 200)) ** 2
    elif regime == "definite":
        d0 = -4 * draw(st.integers(1, 25000)) + draw(st.sampled_from((0, 1)))
    else:
        d0 = 4 * draw(st.integers(1, 1000)) + draw(st.sampled_from((0, 1)))
        assume(isqrt(d0) ** 2 != d0)
    g1, g2 = primitive_form(draw, m2 * m2 * d0), primitive_form(draw, m1 * m1 * d0)
    f1, f2 = Form(m1 * g1.a, m1 * g1.b, m1 * g1.c), Form(m2 * g2.a, m2 * g2.b, m2 * g2.c)
    if draw(st.booleans()):
        f1, f2 = f2, f1
    return act(draw(large_sl2_matrices(10**10)), f1), act(draw(large_sl2_matrices(10**10)), f2)
