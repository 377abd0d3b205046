"""Definite classes read off their positive half: the closed-form bar of a
canonical triple against its reduction, the sign rules of composition
that fill the negative half of a table, and the tables built on them
against pairwise composition."""

from math import gcd, isqrt

from hypothesis import assume, given, settings, strategies as st

from qforms.compose import class_compose, class_group, _compose_reduced
from qforms.forms import _canonical, _canonical_bar

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def neg(t):
    a, b, c = t
    return -a, -b, -c


def test_canonical_bar_is_the_reduced_bar():
    # every canonical triple of every D in [-5000, -3]: the content-m ones
    # are m times the primitive ones of D / m^2, of both signs
    checked = own_bar = 0
    for D0 in range(-5000, -2):
        if D0 % 4 not in (0, 1):
            continue
        triples = [s.coeffs() for s in class_group(D0).elements]
        m = 1
        while m * m * -D0 <= 5000:
            D = m * m * D0
            for a, b, c in triples:
                a, b, c = m * a, m * b, m * c
                bar = _canonical_bar(a, b, c, D)
                assert bar == _canonical(a, -b, c, D), (a, b, c)
                checked += 1
                own_bar += bar == (a, b, c)
            m += 1
    assert (checked, own_bar) == (121066, 19966)


@st.composite
def definite_pairs(draw):
    """Two canonical triples of one D < 0, |D| up to about 10^12, with
    coprime contents, and D: (pq, b, rs) and (pr, b, qs) share b and the
    product of their outer coefficients, so their discriminants agree."""
    p, q, r, s = (draw(st.integers(1, 700)) for _ in range(4))
    n = p * q * r * s
    bmax = isqrt(4 * n - 1)
    b = draw(st.integers(-bmax, bmax))
    D = b * b - 4 * n
    x, y = (p * q, b, r * s), (p * r, b, q * s)
    assume(gcd(gcd(*x), gcd(*y)) == 1)
    return _canonical(*x, D), _canonical(*y, D), D


@PROPERTY
@given(definite_pairs())
def test_sign_rules(pair):
    x, y, D = pair
    bar_x, bar_y = _canonical_bar(*x, D), _canonical_bar(*y, D)
    assert bar_x == _canonical(x[0], -x[1], x[2], D)
    assert _compose_reduced(neg(x), y, D) == neg(_compose_reduced(x, bar_y, D))
    assert _compose_reduced(x, neg(y), D) == neg(_compose_reduced(bar_x, y, D))
    assert _compose_reduced(neg(x), neg(y), D) == _compose_reduced(bar_x, bar_y, D)


def test_sign_rules_are_not_negation():
    # (-x) y is -(x bar y), not -(x y)
    D = -23
    x, y = (-1, -1, -6), (2, -1, 3)
    assert _compose_reduced(x, y, D) == (-2, -1, -3)
    assert neg(_compose_reduced(neg(x), y, D)) == (-2, 1, -3)


def test_definite_tables_match_pairwise_composition():
    checked = 0
    for D in range(-600, -2):
        if D % 4 not in (0, 1):
            continue
        g = class_group(D)
        table, elements = g.table(), g.elements
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                assert elements[table[i][j]] == class_compose(x, y), (D, x, y)
        checked += 1
    assert checked == 300
