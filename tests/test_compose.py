import signal
import time
from math import gcd, isqrt

import pytest

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import class_power, forms_of_disc, random_form
from classgroup_oracle import class_group_by_canonical
from formclass_oracle import reduced_definite
from search_oracle import compose_by_search
from test_forms import time_limit
from qforms.compose import (
    _reduced_definite,
    class_bar,
    class_compose,
    class_group,
    concordant_pair,
    dirichlet_compose,
    divisor_pairs,
    identity_class,
    phi_n,
    s_plus_subgroup,
    special_classes,
    special_square,
    square_normal_form,
)
from qforms.errors import (
    MismatchedDiscriminant,
    NotADiscriminant,
    NotCoprimeContent,
    NotCoprimeResidue,
    NotOddPositive,
    NotOneMod4,
    NotPrimitive,
    NotSquareDiscriminant,
    ZeroDiscriminant,
)
from qforms.forms import (
    Form,
    FormClass,
    Mat2,
    act,
    bar,
    content,
    discriminant,
    form_class,
    is_equivalent,
    neg,
    square_residue,
)
from qforms.cli import main
from qforms.errors import TooLarge
from qforms.seifert import nonisotopic_exists


def composable_partner(f, bound=9):
    """Some form of the same discriminant with content coprime to f's."""
    d = discriminant(f)
    for g in forms_of_disc(d, bound):
        if gcd(content(f), content(g)) == 1:
            return g
    return None


class TestConcordance:
    def test_already_concordant_passthrough(self):
        assert concordant_pair(Form(1, 1, 6), Form(2, 1, 3)) == (Form(1, 1, 6), Form(2, 1, 3))

    def test_postconditions(self, rng):
        checked = 0
        while checked < 150:
            f1 = random_form(rng)
            f2 = composable_partner(f1)
            if f2 is None:
                continue
            checked += 1
            h1, h2 = concordant_pair(f1, f2)
            assert h1.b == h2.b
            assert h1.a != 0 and h2.a != 0
            assert gcd(h1.a, h2.a) == 1
            assert h2.c % h1.a == 0 and h1.c % h2.a == 0
            assert discriminant(h1) == discriminant(f1)
            assert discriminant(h2) == discriminant(f2)
            assert FormClass.of(h1) == FormClass.of(f1)
            assert FormClass.of(h2) == FormClass.of(f2)

    def test_rejects_mismatched_disc(self):
        with pytest.raises(MismatchedDiscriminant):
            concordant_pair(Form(1, 1, 6), Form(1, 1, 5))

    def test_rejects_common_content(self):
        with pytest.raises(NotCoprimeContent):
            concordant_pair(Form(2, 4, 6), Form(2, 0, 4))


def same_disc_form(rng, D, bound):
    """A random form of discriminant D with |b| <= bound."""
    while True:
        b = rng.randint(-bound, bound)
        if (b - D) % 2:
            continue
        m = (b * b - D) // 4  # a * c
        if m == 0:  # square D, b^2 = D: one of a, c is zero
            k = rng.randint(-bound, bound)
            t = (0, b, k) if rng.random() < 0.5 else (k, b, 0)
            if t != (0, 0, 0):
                return Form(*t)
            continue
        a = rng.choice([d for d in range(1, abs(m) + 1) if m % d == 0]) * rng.choice((1, -1))
        return Form(a, b, m // a)


def is_concordant(h1, h2):
    return (h1.b == h2.b and h1.a != 0 and h2.a != 0 and gcd(h1.a, h2.a) == 1
            and h2.c % h1.a == 0 and h1.c % h2.a == 0)


class TestClosedFormConcordance:
    def test_general_path(self):
        # neither (1, 0) nor (0, 1) gives a leading coefficient coprime to 30
        h1, h2 = concordant_pair(Form(30, 1, 2), Form(6, 1, 10))
        assert is_concordant(h1, h2)
        assert FormClass.of(dirichlet_compose(Form(30, 1, 2), Form(6, 1, 10))) == form_class(3, 1, 20)

    def test_agrees_with_search_oracle(self, rng):
        kinds = dict.fromkeys(("definite", "indefinite", "nonprimitive", "square_zero"), 0)
        while min(kinds.values()) < 150:
            f1 = random_form(rng, -30, 30)
            D = discriminant(f1)
            f2 = same_disc_form(rng, D, 40)
            if gcd(content(f1), content(f2)) != 1:
                continue
            h1, h2 = concordant_pair(f1, f2)
            assert is_concordant(h1, h2)
            assert FormClass.of(dirichlet_compose(f1, f2)) == FormClass.of(compose_by_search(f1, f2))
            if content(f1) * content(f2) > 1:
                kinds["nonprimitive"] += 1
            elif 0 in (f1.a, f1.c, f2.a, f2.c) and D > 0 and isqrt(D) ** 2 == D:
                kinds["square_zero"] += 1
            else:
                kinds["definite" if D < 0 else "indefinite"] += 1

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=st.integers(-10**15, 10**15), c=st.integers(-10**15, 10**15),
           k=st.integers(-10**15, 10**15), b=st.integers(-10**30, 10**30),
           t=st.integers(-10**3, 10**3))
    def test_postconditions_large(self, a, c, k, b, t):
        # f1 = (ak, b, c) and f2 = (a, b, ck) share D = b^2 - 4akc; f2 is
        # then moved by a shear in SL2(Z) so the middle coefficients differ
        assume((a * k, b, c) != (0, 0, 0) and (a, b, c * k) != (0, 0, 0))
        assume(b * b != 4 * a * k * c)
        f1 = Form(a * k, b, c)
        f2 = act(Mat2(1, t, 0, 1), Form(a, b, c * k))
        assume(gcd(content(f1), content(f2)) == 1)
        h1, h2 = concordant_pair(f1, f2)
        assert is_concordant(h1, h2)
        assert discriminant(h1) == discriminant(h2) == discriminant(f1)
        assert (content(h1), content(h2)) == (content(f1), content(f2))
        if discriminant(f1) < 0:  # definite reduction is cheap at any size
            assert FormClass.of(h1) == FormClass.of(f1)
            assert FormClass.of(h2) == FormClass.of(f2)


class TestDirichlet:
    def test_inverse_pair_gives_identity(self):
        got = FormClass.of(dirichlet_compose(Form(2, 1, 3), Form(2, -1, 3)))
        assert got == form_class(1, 1, 6)

    def test_square_of_2_1_3(self):
        got = FormClass.of(dirichlet_compose(Form(2, 1, 3), Form(2, 1, 3)))
        assert got == form_class(2, -1, 3)

    def test_square_at_minus_71(self):
        got = FormClass.of(dirichlet_compose(Form(3, 1, 6), Form(3, 1, 6)))
        assert got == form_class(2, -1, 9)

    def test_content_multiplicative(self, rng):
        checked = 0
        while checked < 100:
            f1 = random_form(rng, -9, 9)
            f2 = composable_partner(f1)
            if f2 is None:
                continue
            checked += 1
            assert content(dirichlet_compose(f1, f2)) == content(f1) * content(f2)


# D(1, 2, 1) = 0, D(1, 1, 6) = -23, D(1, 1, -1) = 5, D(2, 10, 0) = 10^2
@pytest.mark.parametrize("call, error, code", [
    (lambda: dirichlet_compose(Form(1, 2, 1), Form(1, 2, 1)), ZeroDiscriminant, "zero-discriminant"),
    (lambda: dirichlet_compose(Form(1, 1, 6), Form(1, 1, -1)), MismatchedDiscriminant, "mismatched-discriminant"),
    (lambda: class_compose(form_class(1, 1, 6), form_class(1, 1, -1)), MismatchedDiscriminant, "mismatched-discriminant"),
    (lambda: concordant_pair(Form(1, 2, 1), Form(1, 2, 1)), ZeroDiscriminant, "zero-discriminant"),
    (lambda: square_residue(Form(1, 1, 6)), NotSquareDiscriminant, "not-square-discriminant"),
    (lambda: square_residue(Form(2, 10, 0)), NotPrimitive, "not-primitive"),
    (lambda: is_equivalent(Form(1, 2, 1), Form(1, 1, 6)), ZeroDiscriminant, "zero-discriminant"),
    (lambda: is_equivalent(Form(1, 1, 6), Form(1, 2, 1)), ZeroDiscriminant, "zero-discriminant"),
], ids=["dirichlet-zero", "dirichlet-mismatched", "class-compose-mismatched", "concordant-zero",
        "residue-not-square", "residue-not-primitive", "equivalent-zero-first", "equivalent-zero-second"])
def test_error_codes(call, error, code):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.code == code


class TestClassOps:
    def test_identity_neutral(self):
        e = identity_class(-23)
        for s in class_group(-23).elements:
            assert class_compose(s, e) == s

    def test_squares_from_paper(self):
        assert class_compose(form_class(2, 1, 9), form_class(2, 1, 9)) == form_class(4, -3, 5)
        assert class_compose(form_class(2, 1, -18), form_class(2, 1, -18)) == form_class(6, 5, -5)

    def test_inverse(self):
        assert class_power(form_class(2, 1, 3), -1) == form_class(2, -1, 3)
        e = identity_class(-23)
        assert class_power(e, -1) == e
        s = form_class(2, 1, 9)
        assert class_power(class_power(s, -1), -1) == s
        assert class_compose(s, class_power(s, -1)) == identity_class(-71)

    def test_inverse_requires_primitive(self):
        with pytest.raises(NotPrimitive):
            class_power(form_class(2, 4, 6), -1)

    def test_bar_antihomomorphism(self, rng):
        checked = 0
        while checked < 100:
            f1 = random_form(rng, -9, 9)
            f2 = composable_partner(f1)
            if f2 is None:
                continue
            checked += 1
            s1 = FormClass.of(dirichlet_compose(f1, f2))
            assert class_bar(s1) == FormClass.of(dirichlet_compose(bar(f1), bar(f2)))

    def test_bar_neg_exchange(self, rng):
        # [q1] = [q2]*[q3] implies the bar/neg exchange identities
        checked = 0
        while checked < 100:
            f2 = random_form(rng, -9, 9)
            f3 = composable_partner(f2)
            if f3 is None:
                continue
            checked += 1
            s1 = FormClass.of(dirichlet_compose(f2, f3))
            lhs = FormClass.of(neg(s1.representative))
            assert lhs == FormClass.of(dirichlet_compose(bar(f2), neg(f3)))
            assert lhs == FormClass.of(dirichlet_compose(neg(f2), bar(f3)))
            lhs = FormClass.of(neg(bar(s1.representative)))
            assert lhs == FormClass.of(dirichlet_compose(f2, neg(bar(f3))))
            assert lhs == FormClass.of(dirichlet_compose(neg(bar(f2)), f3))


class TestClassGroup:
    def test_minus_23(self):
        g = class_group(-23)
        assert g.order == 6
        assert {s.coeffs() for s in g.elements} == {
            (1, 1, 6), (-1, -1, -6), (2, 1, 3), (2, -1, 3), (-2, 1, -3), (-2, -1, -3)}
        # Z/2 x Z/3 is cyclic of order 6
        assert sorted(g.element_order(s) for s in g.elements) == [1, 2, 3, 3, 6, 6]

    def test_minus_71(self):
        group = class_group(-71)
        assert group.order == 14
        positive = {(1, 1, 18), (2, 1, 9), (2, -1, 9), (3, 1, 6), (3, -1, 6),
                    (4, 3, 5), (4, -3, 5)}
        negative = {(-a, -b, -c) for (a, b, c) in positive}
        assert {s.coeffs() for s in group.elements} == positive | negative

    def test_905_is_z8(self):
        g = class_group(905)
        assert g.order == 8
        assert sorted(g.element_order(s) for s in g.elements) == [1, 2, 4, 4, 8, 8, 8, 8]

    def test_145(self):
        g = class_group(145)
        assert g.order == 4
        assert g.element_order(form_class(3, 7, -8)) == 4
        assert form_class(6, 5, -5) in g.elements

    def test_table_leaves_group_equal(self):
        # table() keeps no cache: a group whose table was built still
        # equals a fresh one
        for D in (-23, 905):
            g = class_group(D)
            g.table()
            assert g == class_group(D), D

    def test_rejects_non_discriminant(self):
        with pytest.raises(NotADiscriminant):
            class_group(7)
        with pytest.raises(NotADiscriminant):
            class_group(0)

    @pytest.mark.parametrize("disc,order", [
        # oriented orders = 2h for definite, h (resp. 2h) for indefinite
        # with (resp. without) a norm -1 unit; values from standard tables
        (-163, 2), (-15, 4), (-47, 10), (-311, 38),
        (-4, 2), (-8, 2), (-16, 2), (-20, 4), (-24, 4), (-84, 8),
        (5, 1), (13, 1), (17, 1), (229, 3), (401, 5),
        (12, 2), (40, 2), (60, 4), (136, 4), (316, 6),
    ])
    def test_orders_match_tables(self, disc, order):
        assert class_group(disc).order == order

    def test_every_element_times_its_bar_is_identity(self):
        for d in (-23, -71, 145, 905, 49):
            e = identity_class(d)
            for s in class_group(d).elements:
                assert class_compose(s, class_bar(s)) == e

    def test_abelian_and_associative_exhaustive(self):
        # all class triples for the five reference discriminants
        for d in (-23, -71, 145, 25, 905):
            els = class_group(d).elements
            for x in els:
                for y in els:
                    assert class_compose(x, y) == class_compose(y, x)
            for x in els:
                for y in els:
                    for z in els:
                        assert (class_compose(class_compose(x, y), z)
                                == class_compose(x, class_compose(y, z)))

    def test_closed_under_inverse(self):
        for d in (-23, -71, 145, 905):
            g = class_group(d)
            for s in g.elements:
                assert class_bar(s) in g.elements

    def test_positive_matches_oracle_small(self):
        checked = 0
        for d in range(5, 3001):
            if d % 4 in (0, 1) and isqrt(d) ** 2 != d:
                assert class_group(d).to_dict() == class_group_by_canonical(d).to_dict(), d
                checked += 1
        assert checked == 1446

    @pytest.mark.parametrize("disc,order", [
        (13801, 12), (71481, 6), (91644, 32), (274017, 4), (810865, 8),
    ])
    def test_positive_matches_oracle_large(self, disc, order):
        g = class_group(disc)
        assert g.order == order
        assert g.to_dict() == class_group_by_canonical(disc).to_dict()

    def test_large_positive_class_group_within_budget(self):
        # D = 1000033: one class whose cycle holds every reduced form; a
        # canonical call per reduced form took about 4 s, one walk 0.02 s
        t0 = time.perf_counter()
        g = class_group(1000033)
        assert time.perf_counter() - t0 < 1.0
        assert g.order == 1 and g.elements == [identity_class(1000033)]

    def test_large_negative_class_group_within_budget(self):
        # D = -100000007: the square roots of D mod 4a for a <= 5773 list
        # its 7,253 positive reduced forms in about 0.02 s; the scan over
        # b = D mod 2 that they replaced took about 1 s (2-vCPU host)
        with time_limit(0.5):
            g = class_group(-100000007)
        assert g.order == 14506
        assert g.elements[g.identity_index] == identity_class(-100000007)

    @pytest.mark.parametrize("D", [
        -10**6 - 3,
        -4 * 3 * 5 * 7 * 11 * 13 * 17,  # many small odd primes
        -3 * 2**20,  # a high power of 2
        -(105**2) * 95,  # an odd square factor
    ])
    def test_reduced_definite_matches_trial_over_every_b(self, D):
        # past the exhaustive sweep of test_triple_paths, which stops at -20000
        assert sorted(_reduced_definite(D)) == sorted(f.coeffs() for f in reduced_definite(D))


class TestSpecialClasses:
    def test_divisor_pair_order(self):
        assert divisor_pairs(6)[:4] == [(1, 6), (-1, -6), (2, 3), (-2, -3)]

    def test_divisor_pairs_match_definition(self):
        # the O(|m|) definition: every d in 1..|m| dividing m, in order
        for m in range(-500, 501):
            if m == 0:
                continue
            expected = []
            for d in range(1, abs(m) + 1):
                if m % d == 0:
                    expected += [(d, m // d), (-d, m // -d)]
            assert divisor_pairs(m) == expected, m

    def test_divisor_pairs_zero(self):
        assert divisor_pairs(0) == [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def test_divisor_pairs_large(self):
        m = 10**12 + 39
        t0 = time.perf_counter()
        pairs = divisor_pairs(m)
        assert time.perf_counter() - t0 < 2.0
        assert pairs[:2] == [(1, m), (-1, -m)]
        assert all(a * c == m for a, c in pairs)
        assert [abs(a) for a, _ in pairs] == sorted(abs(a) for a, _ in pairs)

    def test_minus_23(self):
        classes = {s.cls for s in special_classes(-23)}
        assert classes == set(class_group(-23).elements)

    def test_25_includes_3_1_m2(self):
        assert form_class(3, 1, -2) in {s.cls for s in special_classes(25)}

    def test_disc_1_degenerates_to_identity(self):
        assert {s.cls for s in special_classes(1)} == {form_class(0, 1, 0)}

    def test_rejects_wrong_residue(self):
        with pytest.raises(NotOneMod4):
            special_classes(-4)

    def test_special_square_formula(self):
        assert special_square(2, 3) == form_class(2, -1, 3)
        assert special_square(1, 6) == identity_class(-23)
        assert special_square(3, -2) == form_class(4, 5, 0)

    def test_special_square_matches_composition(self):
        for d in list(range(-403, 0, 4)) + [25, 49, 81, 121, 169, 225]:
            if d % 4 != 1:
                continue
            for s in special_classes(d):
                assert special_square(s.a, s.c) == class_compose(s.cls, s.cls)


class TestSPlusSubgroup:
    def test_minus_23(self):
        assert {s.coeffs() for s in s_plus_subgroup(-23)} == {
            (1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_minus_11_trivial(self):
        assert s_plus_subgroup(-11) == [identity_class(-11)]

    def test_minus_71_full_squares(self):
        sub = set(s_plus_subgroup(-71))
        squares = {class_compose(s, s) for s in class_group(-71).elements}
        assert sub == squares and len(sub) == 7

    def test_905_squares_not_all_special(self):
        # (905-1)/4 = 2 * 113 admits only three distinct special squares,
        # strictly fewer than the four squares in the Z/8 group
        group = class_group(905)
        squares = {class_compose(s, s) for s in group.elements}
        specials = {special_square(s.a, s.c) for s in special_classes(905)}
        assert len(squares) == 4
        assert len(specials) == 3
        assert specials < squares

    def test_closed_and_bar_invariant(self):
        for d in (-23, -47, -71, 145):
            sub = set(s_plus_subgroup(d))
            for x in sub:
                assert class_power(x, -1) in sub
                assert class_bar(x) in sub
                for y in sub:
                    assert class_compose(x, y) in sub


class TestSPlusSubgroupBudget:
    # m = (1 - D)/4 = 10^13 passes the divisor_pairs bound, and the closure
    # of its 97 generators did not finish in 40 s before it had a budget

    def test_fails_fast(self):
        def expire(signum, frame):
            raise TimeoutError("s_plus_subgroup(-39999999999999) ran over 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            with pytest.raises(TooLarge) as exc:
                s_plus_subgroup(-39999999999999)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert exc.value.code == "too-large"


class TestSquareDiscriminant:
    def test_normal_form_examples(self):
        assert square_normal_form(Form(2, 5, 0)) == (5, 2)
        assert square_normal_form(Form(9, 13, 4)) == (5, 4)
        assert square_normal_form(Form(3, 1, -2)) == (5, 2)

    def test_phi_identity(self):
        assert phi_n(5, 1) == identity_class(25)

    def test_phi_squares(self):
        two = phi_n(5, 2)
        assert class_compose(two, two) == phi_n(5, 4) == form_class(4, 5, 0)
        assert class_compose(phi_n(5, 2), phi_n(5, 3)) == identity_class(25)

    def test_phi_rejects(self):
        with pytest.raises(NotOddPositive):
            phi_n(4, 1)
        with pytest.raises(NotCoprimeResidue):
            phi_n(15, 6)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13, 15])
    def test_phi_is_isomorphism(self, n):
        units = [a for a in range(1, n) if gcd(a, n) == 1] or [1]
        group = class_group(n * n)
        images = {phi_n(n, a) for a in units}
        assert len(images) == len(units) == group.order
        assert images == set(group.elements)
        for a in units:
            for b in units:
                expect = phi_n(n, (a * b) % n if n > 1 else 1)
                assert class_compose(phi_n(n, a), phi_n(n, b)) == expect

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_normal_form_inverts_phi(self, n):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            got_n, got_a = square_normal_form(phi_n(n, a).representative)
            assert (got_n, got_a) == (n, a)


class TestClassPower:
    def test_powers(self):
        s = form_class(3, 1, 6)  # order 7 in the class group of disc -71
        e = identity_class(-71)
        assert class_power(s, 0) == e
        assert class_power(s, 7) == e
        assert class_power(s, 2) == form_class(2, -1, 9)
        assert class_power(s, -1) == class_bar(s)


def _compose_by_congruences(f1, f2):
    """Classical composition through linear congruences; independent of the
    concordance search.  Raises ValueError outside its sign domain."""
    def solve_linmod(a, b, m):
        g, d, _ = _eg(a, m)
        q, r = divmod(b, g)
        if r:
            raise ValueError
        return (q * d % m if m else q * d), (m // g if g else 0)

    def _eg(a, b):
        old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_x, x = x, old_x - q * x
            old_y, y = y, old_y - q * y
        return (old_r, old_x, old_y) if old_r >= 0 else (-old_r, -old_x, -old_y)

    a, b, c = f1
    al, be, _ = f2
    if f1 == f2:
        mu, _ = solve_linmod(b, c, a)
        return (a * a, b - 2 * a * mu, mu * mu - (b * mu - c) // a)
    g = (b + be) // 2
    h = -(b - be) // 2
    w = gcd(gcd(a, al), g)
    s, t, u = a // w, al // w, g // w
    mu, nu = solve_linmod(t * u, h * u + s * c, s * t)
    lam = solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    el = (k * t - h) // s
    m = (t * u * k - h * u - c * s) // (s * t)
    return (s * t, w * u - (k * t + el * s), k * el - w * m)


class TestCongruenceOracle:
    def test_agrees_on_whole_class_groups(self):
        checked = 0
        for d in (-23, -71, -47, -103, -163, -15, -84, 145, 905, 229, 25):
            group = class_group(d)
            for x in group.elements:
                for y in group.elements:
                    try:
                        raw = _compose_by_congruences(x.coeffs(), y.coeffs())
                    except (ValueError, ZeroDivisionError):
                        continue  # outside the congruence algorithm's domain
                    if raw == (0, 0, 0) or raw[1] ** 2 - 4 * raw[0] * raw[2] != d:
                        continue
                    checked += 1
                    assert class_compose(x, y) == form_class(*raw), (d, x, y)
        assert checked > 500


class TestArbitraryPrecision:
    def test_huge_definite_composition(self):
        # 26-digit leading coefficients; intermediates are far past any
        # fixed-width comfort zone
        a = 10**25 + 13
        c = 10**25 + 129
        s = form_class(a, 1, c)
        sq = class_compose(s, s)
        assert sq == special_square(a, c)
        assert class_compose(sq, class_bar(sq)) == identity_class(1 - 4 * a * c)

    def test_huge_special_square_triviality(self):
        # a = 1 makes the square trivial no matter the size
        m = 10**30 + 57
        assert special_square(1, m) == identity_class(1 - 4 * m)


class TestDivisorPairsBudget:
    # D = 1 - 4 * 10^20 passes negdisc_criterion (m = 10^20 is below the
    # primality bound), but listing its divisor pairs would take 10^10 steps
    D = 1 - 4 * 10**20

    def test_fails_fast(self):
        start = time.perf_counter()
        for call in (lambda: divisor_pairs(10**20), lambda: divisor_pairs(-(10**14) - 1),
                     lambda: nonisotopic_exists(self.D), lambda: special_classes(self.D)):
            with pytest.raises(TooLarge) as exc:
                call()
            assert exc.value.code == "too-large"
        assert time.perf_counter() - start < 1.0

    def test_cli_exits_1(self, capsys):
        start = time.perf_counter()
        assert main(["seifert", "exists", str(self.D), "--json"]) == 1
        assert '"error": "too-large"' in capsys.readouterr().out
        assert time.perf_counter() - start < 1.0

    def test_bound_is_inclusive(self):
        # 10^14 = 2^14 * 5^14 has 15 * 15 divisors, each with both signs
        assert len(divisor_pairs(10**14)) == 2 * 225


class TestClassGroupBudget:
    # -400000000000003 needs about 3.3 * 10^13 b-tests; at -39999999999999
    # m = (1 - D)/4 = 10^13 passes the divisor_pairs bound, but the class
    # group would still need about 3.3 * 10^12

    def test_fails_fast(self):
        start = time.perf_counter()
        for D in (-400000000000003, -39999999999999, 10**12 + 1, (10**8 + 1) ** 2):
            with pytest.raises(TooLarge) as exc:
                class_group(D)
            assert exc.value.code == "too-large"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("D,command", [
        (-400000000000003, ["classgroup"]),
        (-39999999999999, ["seifert", "pairs"]),
    ])
    @pytest.mark.parametrize("mode", ["json", "text"])
    def test_cli_exits_1(self, capsys, tmp_path, D, command, mode):
        flags = ["--json"] if mode == "json" else []
        start = time.perf_counter()
        assert main([*command, *flags, "--cache-dir", str(tmp_path), "--", str(D)]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        if mode == "json":
            assert '"error": "too-large"' in out
        else:
            assert "error[too-large]" in err
