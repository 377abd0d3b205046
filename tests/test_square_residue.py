"""The square-discriminant residue in closed form against the zero-and-
completion construction it replaced, at coefficients up to about 10^31
and N up to 10^15, and the integer-only paths of reduction and
composition."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import sl2_matrices
from search_oracle import compose_by_search
from square_oracle import square_residue_by_zero
from test_compose_direct import pairs_of
from qforms import compose, forms, seifert
from qforms.forms import Form, act, canonical, form_class, square_residue, _canonical, _square_residue

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def square_forms(draw, max_n=10**15):
    """(f, N, r): a primitive f of discriminant N^2 in the class of
    r x^2 + N x y, 0 <= r < N coprime to N (r = 0 for N = 1).

    f starts as one of (r + kN, N, 0), (0, -N, r + kN), (0, N, r^-1 + kN)
    and (r^-1 + kN, -N, 0), with |k| up to 10^15, and is then moved by an
    SL2(Z) element with entries up to about 10^8, or kept as it is.
    """
    N = draw(st.integers(1, max_n))
    r = draw(st.integers(0, N - 1))
    while gcd(r, N) != 1:
        r = (r + 1) % N
    k = draw(st.integers(-10**15, 10**15))
    inv = pow(r, -1, N) + k * N
    f = draw(st.sampled_from([(r + k * N, N, 0), (0, -N, r + k * N), (0, N, inv), (inv, -N, 0)]))
    f = Form(*f)
    if draw(st.booleans()):
        f = act(draw(sl2_matrices(10**4)), f)
    return f, N, r


@PROPERTY
@given(square_forms())
def test_closed_form_matches_zero_and_completion(case):
    f, N, r = case
    assert _square_residue(f.a, f.b, f.c, N) == r
    assert square_residue_by_zero(f) == (N, r)
    assert square_residue(f) == (N, r)


@PROPERTY
@given(square_forms(), st.integers(1, 10**6))
def test_canonical_of_a_multiple(case, m):
    # canonical(m f) = m (r x^2 + N x y), the residue of the primitive part scaled
    f, N, r = case
    assert canonical(Form(m * f.a, m * f.b, m * f.c)) == Form(m * r, m * N, 0)


@pytest.mark.parametrize("f, N, r", [
    ((0, 1, 0), 1, 0), ((0, -1, 0), 1, 0), ((0, 1, 7), 1, 0), ((5, 1, 0), 1, 0),
    ((3, 5, 2), 1, 0),
    ((0, -7, 3), 7, 3), ((0, 7, 3), 7, 5), ((0, -7, -4), 7, 3), ((0, 7, 10**30 + 3), 7, 2),
    ((3, 7, 0), 7, 3), ((3, -7, 0), 7, 5), ((10**30, 7, 0), 7, 10**30 % 7),
    ((2, 5, 0), 5, 2), ((9, 13, 4), 5, 4), ((3, 1, -2), 5, 2), ((1, 1, -6), 5, 1),
])
def test_edge_cases(f, N, r):
    # a = 0, b = +-N and N = 1 against the reference and the known residue
    f = Form(*f)
    assert _square_residue(f.a, f.b, f.c, N) == r
    assert square_residue_by_zero(f) == (N, r)


def test_square_reduction_and_composition_build_no_objects(monkeypatch):
    # square reduction, every composition (non-primitive ones through the
    # projections) and the pair test run on integer triples only
    pairs = [p for kind in ("odd_content", "even_content", "two_contents", "square", "square_zero")
             for p in pairs_of(kind, 40, seed=11)]
    want = [canonical(compose_by_search(f1, f2)).coeffs() for f1, f2 in pairs]
    s1, s2 = form_class(-1, -1, -6), form_class(-2, 1, -3)
    squares = [Form(6, 15, 0), Form(0, -15, 6), Form(0, 5, 3), Form(9, 13, 4)]
    square_want = [canonical(f).coeffs() for f in squares]

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError(f"{args} built an object")

    for module in (forms, compose, seifert):
        for name in ("Form", "Mat2", "FormClass"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, Refused)
    for f, t in zip(squares, square_want):
        assert _canonical(f.a, f.b, f.c, f.b * f.b - 4 * f.a * f.c) == t
    for (f1, f2), t in zip(pairs, want):
        D = f1.b * f1.b - 4 * f1.a * f1.c
        assert compose._canonical(*compose._compose(*f1.coeffs(), *f2.coeffs(), D), D) == t
    assert seifert.realizable_disjoint_pair(s1, s2) == (True, (3, 2))
