"""Direct composition (Cohen 5.4.7, projections for non-primitive contents)
against the concordant-pair and search references, and the group axioms at
coefficients near 10^30."""

import random
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import large_sl2_matrices
from concordant_oracle import compose_by_concordant_pair
from search_oracle import compose_by_search
from qforms.compose import class_bar, class_compose, dirichlet_compose, identity_class, _coprime_part
from qforms.forms import Form, FormClass, act, content, discriminant, neg

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def form_of_disc(rng, D, bound=60, sign=None, zero_leading=False):
    """A random form of discriminant D with |b| <= bound (|b| = sqrt(D) and
    a = 0 when ``zero_leading``); ``sign`` fixes the sign of a."""
    while True:
        if zero_leading:
            b = isqrt(D) * rng.choice((1, -1))
        else:
            b = rng.randint(-bound, bound)
        if (b - D) % 2:
            continue
        m = (b * b - D) // 4  # a * c
        if m == 0:  # square D with b^2 = D: a or c is zero
            k = rng.randint(-bound, bound)
            if k == 0:
                continue
            return Form(0, b, k) if zero_leading or rng.random() < 0.5 else Form(k, b, 0)
        a = rng.choice([d for d in range(1, abs(m) + 1) if m % d == 0])
        a *= sign or rng.choice((1, -1))
        return Form(a, b, m // a)


def random_disc(rng, lo, hi, square=None):
    """A discriminant in [lo, hi]; square or not as ``square`` asks."""
    while True:
        D = rng.randint(lo, hi)
        if D != 0 and D % 4 in (0, 1) and square in (None, D > 0 and isqrt(D) ** 2 == D):
            return D


def primitive_pair(kind, rng):
    if kind.startswith("definite"):
        D = random_disc(rng, -3000, -3)
        s1, s2 = {"definite++": (1, 1), "definite+-": (1, -1), "definite--": (-1, -1)}[kind]
        return form_of_disc(rng, D, sign=s1), form_of_disc(rng, D, sign=s2)
    if kind == "indefinite":
        D = random_disc(rng, 5, 3000, square=False)
        return form_of_disc(rng, D), form_of_disc(rng, D)
    D = rng.randint(1, 40) ** 2
    if kind == "square":
        return form_of_disc(rng, D), form_of_disc(rng, D)
    # square D, representatives with a = 0
    return form_of_disc(rng, D, zero_leading=True), form_of_disc(rng, D, zero_leading=rng.random() < 0.5)


def content_pair(m1, m2, rng):
    """f1 = m1 g1, f2 = m2 g2 of one discriminant m1^2 m2^2 D0, g_i primitive."""
    D0 = random_disc(rng, -400, 400)
    g1 = form_of_disc(rng, m2 * m2 * D0, bound=40 * m2)
    g2 = form_of_disc(rng, m1 * m1 * D0, bound=40 * m1)
    return (Form(m1 * g1.a, m1 * g1.b, m1 * g1.c), Form(m2 * g2.a, m2 * g2.b, m2 * g2.c))


KINDS = ["definite++", "definite+-", "definite--", "indefinite", "square", "square_zero",
         "odd_content", "even_content", "two_contents"]


def contents(kind, rng):
    if kind == "odd_content":
        return rng.choice((3, 5, 7, 9, 11)), 1
    if kind == "even_content":
        return rng.choice((2, 4, 6, 8, 12)), 1
    if kind == "two_contents":
        return rng.randint(2, 12), rng.randint(2, 12)
    return 1, 1


def pairs_of(kind, count, seed=20240817):
    rng = random.Random(f"{kind}-{seed}")
    out = []
    while len(out) < count:
        m1, m2 = contents(kind, rng)
        if gcd(m1, m2) != 1:
            continue
        f1, f2 = primitive_pair(kind, rng) if m1 == m2 == 1 else content_pair(m1, m2, rng)
        if (content(f1), content(f2)) != (m1, m2):
            continue
        if rng.random() < 0.5:
            f1, f2 = f2, f1
        out.append((f1, f2))
    return out


def coprime_part_by_gcd_steps(n, a):
    # the largest divisor of n coprime to a: divide out gcd(n, a), then the
    # gcd of what is left with the last divisor, until it is 1
    g = gcd(n, a)
    while g != 1:
        n //= g
        g = gcd(n, g)
    return n


def test_coprime_part_matches_gcd_steps():
    for n in range(1, 1500):
        for a in range(-60, 61):
            assert _coprime_part(n, a) == coprime_part_by_gcd_steps(n, a), (n, a)
    # up to 10^40, with a common factor raised to high powers in n
    rng = random.Random(2025)
    for _ in range(20000):
        shared = rng.choice((1, 2, 6, 3**7 * 5, 7**15, 2 * 3 * 5 * 7 * 11 * 13))
        n = rng.randint(1, 10**rng.randint(1, 20)) * shared ** rng.randint(0, 3)
        a = rng.randint(-10**20, 10**20) * shared
        assert _coprime_part(n, a) == coprime_part_by_gcd_steps(n, a), (n, a)


class TestAgreesWithConcordantComposition:
    @pytest.mark.parametrize("kind", KINDS)
    def test_class_for_class(self, kind):
        for f1, f2 in pairs_of(kind, 150):
            h = dirichlet_compose(f1, f2)
            assert discriminant(h) == discriminant(f1)
            assert content(h) == content(f1) * content(f2)
            want = FormClass.of(compose_by_concordant_pair(f1, f2))
            assert FormClass.of(h) == want, (f1, f2)
            assert class_compose(FormClass.of(f1), FormClass.of(f2)) == want, (f1, f2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_search(self, kind):
        for f1, f2 in pairs_of(kind, 40, seed=7):
            got = class_compose(FormClass.of(f1), FormClass.of(f2))
            assert got == FormClass.of(compose_by_search(f1, f2)), (f1, f2)

    def test_projection_cases(self):
        # content 2: (1, 0, 3) projects to discriminant -3 only after the
        # parity of b/2 is fixed, (1, 0, 3) -> (1, 2, 4) -> (1, 1, 1)
        assert FormClass.of(dirichlet_compose(Form(2, 2, 2), Form(1, 0, 3))) == FormClass.of(Form(2, 2, 2))
        # content 2 at -92 = 4 * -23: (3, 2, 8) projects to (3, 1, 2) ~ (2, -1, 3)
        assert FormClass.of(dirichlet_compose(Form(4, 2, 6), Form(3, 2, 8))) == FormClass.of(Form(2, 2, 12))
        # contents 2 and 3 at -108 = 36 * -3: the composite has content 6
        h = dirichlet_compose(Form(2, 2, 14), Form(3, 0, 9))
        assert content(h) == 6 and FormClass.of(h) == FormClass.of(Form(6, 6, 6))


@st.composite
def definite_triples(draw):
    """Three primitive definite forms of one discriminant, coefficients near 10^30.

    (a1, b, a2 a3 k), (a2, b, a1 a3 k) and (a3, b, a1 a2 k) share
    D = b^2 - 4 a1 a2 a3 k < 0; each is negated (negative definite) or not.
    """
    a1, a2, a3, k = (draw(st.integers(10**9, 10**10)) for _ in range(4))
    b = draw(st.integers(-10**15, 10**15))
    forms = [Form(a1, b, a2 * a3 * k), Form(a2, b, a1 * a3 * k), Form(a3, b, a1 * a2 * k)]
    assume(all(content(f) == 1 for f in forms))
    return [neg(f) if draw(st.booleans()) else f for f in forms]


@st.composite
def coprime_contents(draw):
    m1 = draw(st.integers(1, 30))
    return m1, draw(st.sampled_from([m for m in range(1, 31) if gcd(m, m1) == 1]))


class TestGroupAxiomsLargeCoefficients:
    @PROPERTY
    @given(forms=definite_triples())
    def test_group_axioms(self, forms):
        s1, s2, s3 = map(FormClass.of, forms)
        e = identity_class(s1.disc)
        s12 = class_compose(s1, s2)
        assert class_compose(s12, s3) == class_compose(s1, class_compose(s2, s3))
        assert s12 == class_compose(s2, s1)
        assert class_compose(e, s1) == s1 == class_compose(s1, e)
        assert class_compose(s1, class_bar(s1)) == e
        assert s12 == FormClass.of(compose_by_concordant_pair(*forms[:2]))

    @PROPERTY
    @given(forms=definite_triples(), g1=large_sl2_matrices(10**3), g2=large_sl2_matrices(10**3))
    def test_representatives_do_not_matter(self, forms, g1, g2):
        f1, f2, _ = forms
        got = FormClass.of(dirichlet_compose(act(g1, f1), act(g2, f2)))
        assert got == class_compose(FormClass.of(f1), FormClass.of(f2))

    @PROPERTY
    @given(a=st.integers(1, 1000), b=st.integers(-1000, 1000), c=st.integers(1, 1000),
           g1=large_sl2_matrices(10**7), g2=large_sl2_matrices(10**7))
    def test_indefinite_moved_far(self, a, b, c, g1, g2):
        # a form (a, b, -c) of small D > 0 and itself, moved to coefficients
        # of about 10^28, so that reducing the composite stays cheap
        D = b * b + 4 * a * c
        assume(isqrt(D) ** 2 != D and gcd(gcd(a, b), c) == 1)
        f = Form(a, b, -c)
        got = FormClass.of(dirichlet_compose(act(g1, f), act(g2, f)))
        assert got == class_compose(FormClass.of(f), FormClass.of(f))
        assert got == FormClass.of(compose_by_concordant_pair(f, f))

    @PROPERTY
    @given(a=st.tuples(*[st.integers(10**9, 10**10)] * 3), k=st.integers(-10**10, 10**10),
           b=st.integers(-10**15, 10**15), m=coprime_contents(),
           g1=large_sl2_matrices(10**3), g2=large_sl2_matrices(10**3))
    def test_content_multiplicative(self, a, k, b, m, g1, g2):
        # p_i = (a_i, m_j b, m_j^2 * the rest) has discriminant m_j^2 D0 with
        # D0 = b^2 - 4 a1 a2 a3 k, so f_i = m_i p_i share m1^2 m2^2 D0
        (a1, a2, a3), (m1, m2) = a, m
        assume(k != 0 and b * b != 4 * a1 * a2 * a3 * k)
        p1 = Form(a1, m2 * b, m2 * m2 * a2 * a3 * k)
        p2 = Form(a2, m1 * b, m1 * m1 * a1 * a3 * k)
        assume(content(p1) == content(p2) == 1)
        f1 = act(g1, Form(m1 * p1.a, m1 * p1.b, m1 * p1.c))
        f2 = act(g2, Form(m2 * p2.a, m2 * p2.b, m2 * p2.c))
        h = dirichlet_compose(f1, f2)
        assert discriminant(h) == discriminant(f1)
        assert content(h) == content(f1) * content(f2) == m1 * m2
        if discriminant(h) < 0:  # definite reduction is cheap at any size
            assert FormClass.of(h) == FormClass.of(compose_by_concordant_pair(f1, f2))
