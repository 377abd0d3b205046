import itertools
import signal
import tracemalloc
from contextlib import contextmanager
from functools import cache
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import GEN_S, GEN_T, GEN_T_INV, large_sl2_matrices, mat_identity, random_form, random_sl2, sl2_matrices
from qforms.compose import class_group
from qforms.errors import NotUnimodular, ZeroDiscriminant, ZeroForm
from qforms.forms import (
    Form,
    FormClass,
    Mat2,
    act,
    bar,
    canonical,
    content,
    discriminant,
    is_equivalent,
    neg,
    square_residue,
    _canonical,
    _reduce_indefinite,
    _walk,
)


def gross_rows(f):
    return ((f.b, 2 * f.a), (-2 * f.c, -f.b))


def conj(g, rows):
    (p, q), (r, s) = g.rows()
    (a, b), (c, d) = rows
    # g @ rows @ g^-1 with g^-1 = ((s, -q), (-r, p))
    m = ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))
    return (
        (m[0][0] * s + m[0][1] * -r, m[0][0] * -q + m[0][1] * p),
        (m[1][0] * s + m[1][1] * -r, m[1][0] * -q + m[1][1] * p),
    )


class TestBasics:
    def test_zero_form_rejected(self):
        with pytest.raises(ZeroForm):
            Form(0, 0, 0)

    def test_discriminant(self):
        assert discriminant(Form(1, 1, 6)) == -23
        assert discriminant(Form(1, 1, 0)) == 1
        assert discriminant(Form(9, 13, 4)) == 25

    def test_content(self):
        assert content(Form(2, 4, 6)) == 2
        assert content(Form(2, 1, 3)) == 1
        assert content(Form(-6, -5, -2)) == 1

    def test_unimodular_det_checked(self):
        with pytest.raises(NotUnimodular):
            act(Mat2(1, 0, 0, -1), Form(2, 1, 3))

    def test_bar(self):
        assert bar(Form(2, 1, 3)) == Form(2, -1, 3)
        assert bar(Form(1, 0, 5)) == Form(1, 0, 5)
        assert bar(bar(Form(3, -5, 7))) == Form(3, -5, 7)

    def test_neg(self):
        assert neg(Form(1, 1, 6)) == Form(-1, -1, -6)
        assert neg(neg(Form(2, -3, 5))) == Form(2, -3, 5)
        assert discriminant(neg(Form(4, 7, -3))) == discriminant(Form(4, 7, -3))

    def test_bar_neg_commute(self, rng):
        for _ in range(50):
            f = random_form(rng)
            assert bar(neg(f)) == neg(bar(f))


class TestAction:
    def test_identity(self):
        f = Form(3, 1, -2)
        assert act(mat_identity(), f) == f

    def test_s_swap(self):
        assert act(GEN_S, Form(6, 1, 1)) == Form(1, -1, 6)

    def test_t_translation_class(self):
        # conjugation by T lands in the same class as the b -> b + 2a shift
        out = act(GEN_T, Form(1, -1, 6))
        assert is_equivalent(out, Form(1, 1, 6))

    def test_rejects_det_minus_one(self):
        # substitution by a det -1 matrix would land in the inverse class
        with pytest.raises(NotUnimodular):
            act(Mat2(0, 1, 1, 0), Form(2, 1, 3))

    def test_gross_equivariance(self, rng):
        for _ in range(200):
            f = random_form(rng)
            g = random_sl2(rng)
            assert gross_rows(act(g, f)) == conj(g, gross_rows(f))

    def test_left_action(self, rng):
        for _ in range(200):
            f = random_form(rng)
            g, h = random_sl2(rng), random_sl2(rng)
            assert act(g @ h, f) == act(g, act(h, f))

    def test_invariants(self, rng):
        for _ in range(200):
            f = random_form(rng)
            g = random_sl2(rng)
            assert discriminant(act(g, f)) == discriminant(f)
            assert content(act(g, f)) == content(f)


class TestCanonical:
    def test_definite_examples(self):
        assert canonical(Form(4, -11, 9)) == Form(2, -1, 3)
        assert canonical(Form(1, 1, 6)) == Form(1, 1, 6)
        assert canonical(Form(-1, -1, -6)) == Form(-1, -1, -6)
        assert canonical(Form(8, -13, 6)) == Form(1, 1, 6)

    def test_square_examples(self):
        assert canonical(Form(9, 13, 4)) == Form(4, 5, 0)
        assert canonical(Form(2, 5, 0)) == Form(2, 5, 0)
        # content is pulled out before normalizing the primitive part
        assert canonical(Form(6, 15, 0)) == Form(6, 15, 0)
        assert content(canonical(Form(27, 39, 12))) == 3

    def test_zero_discriminant_rejected(self):
        with pytest.raises(ZeroDiscriminant):
            canonical(Form(1, 2, 1))

    def test_idempotent_and_orbit_constant(self, rng):
        for _ in range(300):
            f = random_form(rng)
            cf = canonical(f)
            assert canonical(cf) == cf
            assert discriminant(cf) == discriminant(f)
            assert content(cf) == content(f)
            g = random_sl2(rng, length=10)
            assert canonical(act(g, f)) == cf

    def test_indefinite_cycle_memory(self):
        # D = 10^12 + 65: the principal cycle has 13,186 reduced forms;
        # holding them all would take about 1.8 MB
        f = Form(1, 1, -(10**12 + 64) // 4)
        tracemalloc.start()
        try:
            got = canonical(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == Form(-968736, 937503, 31249)
        assert peak < 1 << 20

    def test_definite_reduced_shape(self, rng):
        for _ in range(200):
            f = random_form(rng)
            if discriminant(f) >= 0:
                continue
            cf = canonical(f)
            a, b, c = (cf.a, cf.b, cf.c) if cf.a > 0 else (-cf.a, -cf.b, -cf.c)
            assert abs(b) <= a <= c
            if abs(b) == a or a == c:
                assert b >= 0


class TestSquareResidue:
    def test_examples(self):
        assert square_residue(Form(2, 5, 0)) == (5, 2)
        assert square_residue(Form(9, 13, 4)) == (5, 4)
        assert square_residue(Form(3, 1, -2)) == (5, 2)
        assert square_residue(Form(1, 1, -6)) == (5, 1)

    def test_residue_is_coprime(self, rng):
        from math import isqrt
        seen = 0
        while seen < 100:
            f = random_form(rng)
            d = discriminant(f)
            if d <= 0 or content(f) != 1:
                continue
            r = isqrt(d)
            if r * r != d:
                continue
            seen += 1
            n, a = square_residue(f)
            assert n * n == d and 0 <= a < n or (n, a) == (1, 0)


class TestEquivalence:
    def test_examples(self):
        assert not is_equivalent(Form(2, 1, 3), Form(2, -1, 3))
        assert is_equivalent(Form(6, -1, 1), Form(1, 1, 6))

    def test_orbit_membership(self, rng):
        for _ in range(100):
            f = random_form(rng)
            g = random_sl2(rng)
            assert is_equivalent(f, act(g, f))

    def test_small_box_against_orbit_closure(self):
        # every pair in a small box, against single-generator BFS closure
        box = [Form(a, b, c)
               for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)
               if (a, b, c) != (0, 0, 0) and b * b - 4 * a * c != 0]
        gens = (GEN_S, GEN_T, GEN_T_INV)

        def orbit(f, depth=10):
            seen = {f.coeffs()}
            frontier = [f]
            for _ in range(depth):
                nxt = []
                for h in frontier:
                    for g in gens:
                        i = act(g, h)
                        if i.coeffs() not in seen:
                            seen.add(i.coeffs())
                            nxt.append(i)
                frontier = nxt
            return seen

        orbits = {f.coeffs(): orbit(f) for f in box}
        for f1, f2 in itertools.combinations(box, 2):
            if discriminant(f1) != discriminant(f2):
                continue
            if f2.coeffs() in orbits[f1.coeffs()]:
                assert is_equivalent(f1, f2)
            # inequivalent forms never share an orbit member
            if not is_equivalent(f1, f2):
                assert f2.coeffs() not in orbits[f1.coeffs()]


class TestFormClass:
    def test_canonical_storage(self):
        s = FormClass.of(Form(4, -11, 9))
        assert s.representative == Form(2, -1, 3)
        assert s.disc == -23

    def test_equality_is_class_equality(self, rng):
        for _ in range(50):
            f = random_form(rng)
            g = random_sl2(rng)
            assert FormClass.of(f) == FormClass.of(act(g, f))


# fixed, reproducible Hypothesis runs
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def definite_forms(draw):
    """Positive or negative definite forms with coefficients up to about 10^30."""
    a, c = draw(st.integers(1, 10**30)), draw(st.integers(1, 10**30))
    m = isqrt(4 * a * c - 1)
    f = Form(a, draw(st.integers(-m, m)), c)
    return neg(f) if draw(st.booleans()) else f


class TestCanonicalProperties:
    """canonical is idempotent and constant on SL2(Z) orbits, at any size."""

    @staticmethod
    def check(f, g):
        cf = canonical(f)
        assert canonical(cf) == cf
        assert canonical(act(g, f)) == cf
        assert (discriminant(cf), content(cf)) == (discriminant(f), content(f))
        return cf

    @PROPERTY
    @given(f=definite_forms(), g=sl2_matrices(10**6))
    def test_definite(self, f, g):
        self.check(f, g)

    @PROPERTY
    @given(p=st.integers(-10**15, 10**15), q=st.integers(-10**15, 10**15),
           r=st.integers(-10**15, 10**15), s=st.integers(-10**15, 10**15),
           g=sl2_matrices(10**6))
    def test_square(self, p, q, r, s, g):
        # (p x + q y)(r x + s y) has discriminant (p s - q r)^2
        assume(p * s != q * r)
        self.check(Form(p * r, p * s + q * r, q * s), g)

    @PROPERTY
    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000), c=st.integers(-1000, 1000),
           g0=sl2_matrices(10**7), g=sl2_matrices(10**3))
    def test_indefinite(self, a, b, c, g0, g):
        # a form of small D moved to coefficients of about 10^30, so the
        # cycle stays short while the reduction works on huge numbers
        D = b * b - 4 * a * c
        assume(D > 0 and isqrt(D) ** 2 != D)
        f0 = Form(a, b, c)
        assert self.check(act(g0, f0), g) == canonical(f0)


def textbook_gauss(a, b, c):
    """Gauss reduction of a positive definite form as in Buchmann and
    Vollmer, Binary Quadratic Forms, ch. 5: normalize, (a, b, c) ->
    (a, b + 2ka, f(k, 1)) with k = floor((a - b) / 2a), and while a > c
    normalize (c, -b, a); then b >= 0 when a = c."""
    while True:
        k = (a - b) // (2 * a)
        b, c = b + 2 * k * a, a * k * k + b * k + c
        if a <= c:
            break
        a, b, c = c, -b, a
    return (a, -b, c) if a == c and b < 0 else (a, b, c)


@st.composite
def small_definite_forms(draw):
    """Positive or negative definite forms with |a|, |c| <= 10^4."""
    a, c = draw(st.integers(1, 10**4)), draw(st.integers(1, 10**4))
    m = isqrt(4 * a * c - 1)
    f = Form(a, draw(st.integers(-m, m)), c)
    return neg(f) if draw(st.booleans()) else f


class TestGaussAgainstTextbook:
    """_canonical for D < 0 against textbook_gauss on forms moved by SL2(Z)
    elements with entries near 10^16, which take c to 10^30-10^40, so that
    every Gauss step works on big integers."""

    @PROPERTY
    @given(f=small_definite_forms(), g=large_sl2_matrices(10**8))
    def test_definite(self, f, g):
        a, b, c = act(g, f).coeffs()
        assume(abs(c) >= 10**30)  # g is (1, t - 1; 1, t) when p = q
        D = discriminant(f)
        if a > 0:
            want = textbook_gauss(a, b, c)
        else:
            want = tuple(-x for x in textbook_gauss(-a, -b, -c))
        assert _canonical(a, b, c, D) == want == _canonical(f.a, f.b, f.c, D)


# D > 0 with 4, 6 and 8 classes, some of them not their own bar, whose
# reduced cycles hold 224 to 452 forms
LONG_CYCLES = (233209, 412569, 517225)


@cache
def classes_of(D):
    return class_group(D).elements


def textbook_step(f, D):
    """rho(a, b, c) = (c, -b + 2 s c, .), s = sign(c) floor((b + sqrt D) / 2|c|),
    the textbook neighbor of a reduced form (Buchmann and Vollmer, Binary
    Quadratic Forms, ch. 6)."""
    a, b, c = f.coeffs()
    s = (b + isqrt(D)) // (2 * abs(c)) * (1 if c > 0 else -1)
    r = -b + 2 * s * c
    return Form(c, r, (r * r - D) // (4 * c))


def textbook_cycle(f, D):
    """The cycle of the reduced form f by the textbook neighbor step."""
    cycle = [f]
    while True:
        nxt = textbook_step(cycle[-1], D)
        if nxt == f:
            return cycle
        cycle.append(nxt)


def is_reduced(f, D):
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, checked exactly."""
    t = 2 * abs(f.a)
    return 0 < f.b and f.b ** 2 < D and (t + f.b) ** 2 > D and (t <= f.b or (t - f.b) ** 2 < D)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestIndefiniteEquivalence:
    """is_equivalent on D > 0 non-square walks one cycle until it meets the partner."""

    @pytest.mark.parametrize("D", LONG_CYCLES)
    def test_every_pair_of_classes(self, D, rng):
        reps = [s.representative for s in classes_of(D)]
        assert len(reps) >= 4
        forms = [act(random_sl2(rng, 12), f) for f in reps]
        bar_differs = 0
        for i, f1 in enumerate(forms):
            for j, f2 in enumerate(forms):
                assert is_equivalent(f1, f2) == (i == j) == (canonical(f1) == canonical(f2))
            fb = act(random_sl2(rng, 12), bar(reps[i]))
            same = canonical(f1) == canonical(fb)
            assert is_equivalent(f1, fb) == is_equivalent(fb, f1) == same
            bar_differs += not same
        assert bar_differs > 0

    @pytest.mark.parametrize("D", LONG_CYCLES)
    def test_partner_one_step_behind(self, D):
        # the walk from f1 meets f2 = rho^-1(f1) only at its last step
        for s in classes_of(D):
            cycle = textbook_cycle(s.representative, D)
            assert len(cycle) >= 200
            assert is_equivalent(cycle[0], cycle[-1])
            assert is_equivalent(cycle[0], cycle[0])
            assert is_equivalent(cycle[0], cycle[len(cycle) // 2])

    @PROPERTY
    @given(D=st.sampled_from(LONG_CYCLES), i=st.integers(0, 7), j=st.integers(0, 7),
           flip=st.booleans(), g1=sl2_matrices(10**7), g2=sl2_matrices(10**7))
    def test_large_coefficients(self, D, i, j, flip, g1, g2):
        els = classes_of(D)
        f1 = act(g1, els[i % len(els)].representative)
        f2 = els[j % len(els)].representative
        f2 = act(g2, bar(f2) if flip else f2)
        expected = canonical(f1) == canonical(f2)
        assert expected == (FormClass.of(f2) == els[i % len(els)])
        assert is_equivalent(f1, f2) == expected

    def test_partner_met_at_once_on_a_long_cycle(self):
        # D = 10^21 + 1: the principal cycle does not close within 3 * 10^6
        # steps, so a walk that misses a partner it could meet before or at
        # its first step never returns in time
        D = 10**21 + 1
        b = isqrt(D) - (isqrt(D) - D) % 2
        with time_limit(1.0):
            for f in (Form(1, b, (b * b - D) // 4), Form(-1, b, (D - b * b) // 4)):
                assert is_reduced(f, D)
                assert is_equivalent(f, f)
                assert is_equivalent(f, textbook_step(f, D))
                # two scrambles that differ by a shear fixing c, so the first
                # reduction step takes both to the same form
                h1 = act(Mat2(10**15 + 1, 10**15, 1, 1), f)
                h2 = act(Mat2(1, -(10**12), 0, 1), h1)
                assert _reduce_indefinite(*h1.coeffs(), D, isqrt(D)) == \
                    _reduce_indefinite(*h2.coeffs(), D, isqrt(D))
                assert is_equivalent(h1, h2)


def all_reduced_forms(D):
    """Every reduced form of D > 0 non-square, both signs of a, primitive or not."""
    sq = isqrt(D)
    out = []
    for b in range(1, sq + 1):
        prod = (b * b - D) // 4
        if b * b - D != 4 * prod:
            continue
        for aa in range(max(1, (sq - b) // 2), (sq + b) // 2 + 2):
            if prod % aa == 0 and is_reduced(Form(aa, b, 0), D):
                out += [Form(aa, b, prod // aa), Form(-aa, b, -prod // aa)]
    return out


def check_walk(f, D, cycle, others=()):
    """_walk from f returns the least form of its textbook cycle, with no
    stop and with a stop set of forms on other cycles, which it keeps."""
    sq = isqrt(D)
    least = min(g.coeffs() for g in cycle)
    assert _walk(*f.coeffs(), D, sq) == least
    stop = {g.coeffs() for g in others} | {(0, 0, 0)}  # the zero form is on no cycle
    kept = set(stop)
    assert _walk(*f.coeffs(), D, sq, stop=stop) == least
    assert stop == kept


def check_stops(f, D, cycle):
    """The walk from f strikes off every member of its cycle: one alone or
    two half the cycle apart end the walk, the whole cycle is struck off,
    and with a form of no cycle the walk strikes off the rest and returns
    the least form."""
    sq = isqrt(D)
    for g in cycle:
        assert _walk(*f.coeffs(), D, sq, stop={g.coeffs()}) is None
    assert _walk(*f.coeffs(), D, sq, stop={cycle[len(cycle) // 2].coeffs(), cycle[-1].coeffs()}) is None
    members = {g.coeffs() for g in cycle}
    stop = set(members)
    assert _walk(*f.coeffs(), D, sq, stop=stop) is None and not stop
    stop = members | {(0, 0, 0)}
    assert _walk(*f.coeffs(), D, sq, stop=stop) == min(members)
    assert stop == {(0, 0, 0)}


class TestWalk:
    """forms._walk, the one cycle walk, against the textbook neighbor step."""

    def test_every_reduced_form_small_d(self):
        # all 1,446 non-square D = 0, 1 mod 4 up to 3000: the minimum from
        # every reduced form, the stops from one start of each sign per cycle
        cycles = 0
        for D in range(5, 3001):
            if D % 4 > 1 or isqrt(D) ** 2 == D:
                continue
            forms = all_reduced_forms(D)
            seen = set()
            for f in forms:
                if f in seen:
                    continue
                cycle = textbook_cycle(f, D)
                seen.update(cycle)
                cycles += 1
                check_walk(f, D, cycle, others=[g for g in forms[:6] if g not in cycle])
                for g in cycle[1:]:
                    check_walk(g, D, cycle)
                check_stops(next(g for g in cycle if g.a < 0), D, cycle)
                check_stops(next(g for g in cycle if g.a > 0), D, cycle)
            assert seen == set(forms)
        assert cycles > 5000

    @PROPERTY
    @given(e=st.integers(1, 40), n=st.integers(500, 1_500_000), j=st.integers(0, 50),
           i=st.integers(0, 10**6), sign=st.sampled_from((1, -1)),
           g1=sl2_matrices(10**6), g2=sl2_matrices(10**6))
    def test_large_discriminants(self, e, n, j, i, sign, g1, g2):
        # D = e^2 (n^2 + 4) with n odd has a small regulator, so at D up to
        # 10^13 the cycles hold 2 to ~200 forms; the forms are moved to
        # coefficients of about 10^30
        n = 2 * (n // e) + 1
        D = e * e * (n * n + 4)
        assume(D <= 10**13)
        b = D % 2 + 2 * j
        prod = (b * b - D) // 4
        divisors = [d for d in range(1, 300) if prod % d == 0]
        a = sign * divisors[i % len(divisors)]
        f0 = canonical(Form(a, b, prod // a))
        assert is_reduced(f0, D)
        cycle = textbook_cycle(f0, D)
        assert f0 == min(cycle, key=Form.coeffs)
        f = cycle[i % len(cycle)]
        check_walk(f, D, cycle)
        check_stops(f, D, cycle)
        assert canonical(act(g1, f)) == f0
        assert is_equivalent(act(g1, f), act(g2, cycle[(i // 7) % len(cycle)]))
        # bar(f) is properly equivalent to the reduced form (c, b, a)
        fb = act(g2, bar(f))
        assert is_equivalent(act(g1, f), fb) == (canonical(fb) == f0) == (Form(f.c, f.b, f.a) in cycle)
