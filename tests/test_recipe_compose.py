"""The paper's cube recipe (``compose._compose``) against composition
through a concordant pair (``concordant_oracle``): the same class and the
same content, at coefficients up to about 10^40, in every regime, for
coprime contents up to 30, for zero leading coefficients, and for the pairs
(0, N, c1), (0, -N, c2) whose first Plucker row (b1 + b2)/2, a2, -a1 is
zero.  ``tests/test_compose_direct.py`` compares the two on its own inputs;
these add the largest coefficients, the zero first row and the refusal of
contents that share a prime."""

from math import gcd, isqrt

from hypothesis import assume, example, given, settings, strategies as st

from concordant_oracle import compose_by_concordant_pair
from conftest import large_sl2_matrices, outcome, primitive_form
from test_compose_direct import coprime_contents
from qforms import compose
from qforms.forms import Form, act, content, discriminant, is_equivalent

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def pairs(draw):
    """Two forms of one discriminant D = (m1 m2)^2 D0 with coprime contents
    m1, m2.  "plain" and "moved" take m_i times a primitive form of
    discriminant m_j^2 D0, D0 < 0, D0 > 0 not a square, or D0 a square, the
    moved ones after an SL2(Z) element with entries of about 10^20.  "zero"
    takes D0 = N0^2, a first form (0, +-N, c1) with N = m1 m2 N0 and c1 up
    to 10^40, and a second of the same shape (the zero first row when the
    signs differ) or one of the others."""
    kind = draw(st.sampled_from(("plain", "moved", "moved", "zero")))
    m1, m2 = draw(coprime_contents())
    if kind == "zero":
        n0 = draw(st.integers(1, 10**6))
        d0 = n0 * n0
    else:
        regime = draw(st.sampled_from(("definite", "indefinite", "square")))
        if regime == "definite":
            d0 = -4 * draw(st.integers(1, 25000)) + draw(st.sampled_from((0, 1)))
        elif regime == "indefinite":  # small, so that the cycle walks stay short
            d0 = 4 * draw(st.integers(1, 40)) + draw(st.sampled_from((0, 1)))
            assume(isqrt(d0) ** 2 != d0)
        else:
            d0 = draw(st.integers(1, 200)) ** 2
    g1, g2 = primitive_form(draw, m2 * m2 * d0), primitive_form(draw, m1 * m1 * d0)
    f1, f2 = Form(m1 * g1.a, m1 * g1.b, m1 * g1.c), Form(m2 * g2.a, m2 * g2.b, m2 * g2.c)
    if kind == "moved":
        f1, f2 = (act(draw(large_sl2_matrices(10**10)), f) for f in (f1, f2))
    elif kind == "zero":
        N = m1 * m2 * n0
        sign = draw(st.sampled_from((1, -1)))
        f1 = Form(0, sign * N, m1 * draw(st.integers(-10**40, 10**40)))
        if draw(st.booleans()):
            f2 = Form(0, draw(st.sampled_from((sign, -sign))) * N, m2 * draw(st.integers(-10**40, 10**40)))
        assume(content(f1) == m1 and content(f2) == m2)
    if draw(st.booleans()):
        f1, f2 = f2, f1
    return f1, f2


class TestRecipeAgainstConcordantPair:
    @PROPERTY
    @given(fs=pairs())
    @example(fs=(Form(0, 1, 0), Form(0, -1, 0)))  # P = (0, 0, 0, 0, 0, -1): the last pivot
    @example(fs=(Form(0, 5, 1), Form(0, -5, 2)))  # the zero first row, pivot column 1
    @example(fs=(Form(0, 6, 2), Form(0, -6, 3)))  # the same with contents 2 and 3
    def test_class_and_content(self, fs):
        f1, f2 = fs
        D = discriminant(f1)
        got = compose._compose(*f1.coeffs(), *f2.coeffs(), D)
        want = compose_by_concordant_pair(f1, f2)
        assert got[1] ** 2 - 4 * got[0] * got[2] == D
        assert gcd(*got) == content(want) == content(f1) * content(f2)
        assert is_equivalent(Form(*got), want), (f1, f2, got, want)

    @settings(PROPERTY, max_examples=100)
    @given(fs=pairs(), k=st.sampled_from((2, 3, 5)))
    def test_shared_prime_is_refused(self, fs, k):
        # scaling both forms by k makes their contents share it
        f1, f2 = (Form(k * f.a, k * f.b, k * f.c) for f in fs)
        D = discriminant(f1)
        got = outcome(compose._compose, *f1.coeffs(), *f2.coeffs(), D)
        assert got == outcome(compose_by_concordant_pair, f1, f2) == ("err", "not-coprime-content")

    def test_strategy_reaches_every_case(self):
        # every regime, non-primitive pairs, zero leading coefficients and
        # the zero first row
        seen = set()

        @PROPERTY
        @given(fs=pairs())
        def record(fs):
            (a1, b1, _), (a2, b2, _) = (f.coeffs() for f in fs)
            D = discriminant(fs[0])
            seen.add("neg" if D < 0 else "square" if isqrt(D) ** 2 == D else "pos")
            if content(fs[0]) * content(fs[1]) > 1:
                seen.add("contents")
            if a1 == 0 or a2 == 0:
                seen.add("zero-leading")
            if a1 == a2 == b1 + b2 == 0:
                seen.add("zero-row")
            if max(abs(x) for f in fs for x in f.coeffs()) > 10**35:
                seen.add("large")

        record()
        assert seen == {"neg", "pos", "square", "contents", "zero-leading", "zero-row", "large"}
