"""The least-form walk of ``forms._walk`` that stops at mirror steps.

Without ``stop``, ``_walk`` walks an ambiguous cycle only from its start
and from the start's mirror rho(a, b, c) = (c, b, a), each up to the next
step f -> rho(f).  These tests hold it to the least form of the textbook
cycle and to the full walk that a stop set of no cycle's forms forces,
and check that the half walk is what the budget counts.  The bar of a
canonical triple is walked from its mirror, held to the reduction of
(a, -b, c).
"""

from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import qforms.forms as forms
from conftest import sl2_matrices
from qforms.compose import _class_triples
from qforms.errors import TooLarge
from qforms.forms import Form, act, canonical, _canonical, _canonical_bar, _reduce_indefinite, _walk
from test_forms import all_reduced_forms, textbook_cycle, textbook_step

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def rho(f):
    return Form(f.c, f.b, f.a)


def full_minimum(f, D):
    """The least form of the cycle of the reduced f by the full walk: the
    zero form is on no cycle, so the stop set never empties."""
    return _walk(*f.coeffs(), D, isqrt(D), stop={(0, 0, 0)})


def test_every_reduced_form_small_d():
    # all 1,446 non-square D = 0, 1 mod 4 up to 3000, every reduced form of
    # both signs of a, primitive or not; 5,375 of the 6,607 cycles are
    # ambiguous
    checked = cycles = ambiguous = 0
    for D in range(5, 3001):
        if D % 4 > 1 or isqrt(D) ** 2 == D:
            continue
        sq = isqrt(D)
        least = {}
        for f in all_reduced_forms(D):
            t = f.coeffs()
            if t not in least:
                cycle = [g.coeffs() for g in textbook_cycle(f, D)]
                least.update(dict.fromkeys(cycle, min(cycle)))
                cycles += 1
                ambiguous += (f.c, f.b, f.a) in cycle
            assert _walk(*t, D, sq) == least[t], (D, f)
            checked += 1
    assert (checked, cycles, ambiguous) == (69274, 6607, 5375)


def check_cycle(f, D, length, mirrored):
    # the textbook cycle of f, whether rho maps it to itself, and the half
    # walk from each of its forms against the full one
    cycle = textbook_cycle(f, D)
    assert len(cycle) == length and (rho(f) in cycle) == mirrored
    steps = [g for g in cycle if textbook_step(g, D) == rho(g)]
    assert len(steps) == (2 if mirrored else 0)
    for g in cycle:
        assert _walk(*g.coeffs(), D, isqrt(D)) == full_minimum(g, D) == min(h.coeffs() for h in cycle)


def test_two_form_cycles():
    # each step of a two-form cycle is a mirror step
    for D, f in ((5, Form(1, 1, -1)), (8, Form(1, 2, -1))):
        check_cycle(f, D, 2, True)
        assert textbook_step(f, D) == rho(f)


def test_mirror_on_the_first_step():
    # from (-2, 3, 1) of D = 17 the first step goes to its mirror (1, 3, -2)
    f = Form(-2, 3, 1)
    assert textbook_step(f, 17) == rho(f)
    check_cycle(f, 17, 6, True)


def test_mirror_on_the_pre_step():
    # from (2, 3, -1) the step to the first a < 0 form is the mirror step
    f = Form(2, 3, -1)
    assert textbook_step(f, 17) == rho(f)
    check_cycle(f, 17, 6, True)


def test_cycle_that_is_not_ambiguous_is_walked_in_full(monkeypatch):
    # the class of (5, 4, -6) has order 4 in the class group of D = 136; its
    # six forms take three passes from an a < 0 start, the full cycle
    f = Form(-6, 8, 3)
    check_cycle(f, 136, 6, False)
    monkeypatch.setattr(forms, "_WALK_MAX", 3)
    assert _walk(*f.coeffs(), 136, isqrt(136)) == (-6, 8, 3)
    monkeypatch.setattr(forms, "_WALK_MAX", 2)
    with pytest.raises(TooLarge):
        _walk(*f.coeffs(), 136, isqrt(136))


def test_half_of_the_longest_pool_cycle_fits_a_reduced_budget(monkeypatch):
    # the principal cycle of D = 584637511777 has 485,404 forms: 242,702
    # passes for a full walk, 121,352 for the two half walks
    D = 584637511777
    sq = isqrt(D)
    b = sq - (sq - D) % 2
    f = (1, b, (b * b - D) // 4)
    monkeypatch.setattr(forms, "_WALK_MAX", 150_000)
    least = canonical(Form(*f))
    assert least.a < 0 and least.b ** 2 - 4 * least.a * least.c == D
    with pytest.raises(TooLarge):
        _walk(*f, D, sq, stop={(0, 0, 0)})
    monkeypatch.setattr(forms, "_WALK_MAX", 121_351)
    with pytest.raises(TooLarge):
        _walk(*f, D, sq)


def test_cycle_that_is_not_ambiguous_keeps_its_full_budget(monkeypatch):
    # the anchor cycle of the benchmark pool: 81,458 forms of D =
    # 5973021525857 in a class that is not ambiguous, 40,729 passes
    f = Form(29, 61, -51491564846)
    monkeypatch.setattr(forms, "_WALK_MAX", 40_728)
    with pytest.raises(TooLarge):
        canonical(f)
    monkeypatch.setattr(forms, "_WALK_MAX", 40_729)
    least = canonical(f)
    assert canonical(rho(least)) != least  # the inverse class is another one


def test_bar_walks_from_the_mirror():
    # every canonical triple of every non-square D in [5, 10000]: the
    # content-m ones are m times the primitive ones of D / m^2
    checked = own_bar = 0
    for D0 in range(5, 10001):
        if D0 % 4 > 1 or isqrt(D0) ** 2 == D0:
            continue
        triples = _class_triples(D0)[0]
        m = 1
        while m * m * D0 <= 10000:
            D = m * m * D0
            for a, b, c in triples:
                a, b, c = m * a, m * b, m * c
                bar = _canonical_bar(a, b, c, D)
                assert bar == _canonical(a, -b, c, D), (a, b, c)
                checked += 1
                own_bar += bar == (a, b, c)
            m += 1
    assert (checked, own_bar) == (29012, 21144)


@st.composite
def scrambled_reduced_forms(draw):
    """(f, D, g.f): a reduced form f of a non-square D <= 10^10 and its image
    under an SL2(Z) element g, with coefficients up to about 10^36."""
    D = 4 * draw(st.integers(2, 10**10 // 4)) + draw(st.sampled_from((0, 1)))
    assume(isqrt(D) ** 2 != D)
    b = D % 2 + 2 * draw(st.integers(0, 60))
    prod = (b * b - D) // 4
    a = draw(st.sampled_from([d for d in range(1, 200) if prod % d == 0]))
    a *= draw(st.sampled_from((1, -1)))
    f = Form(*_reduce_indefinite(a, b, prod // a, D, isqrt(D)))
    return f, D, act(draw(sl2_matrices(10**9)), f)


@PROPERTY
@given(fds=scrambled_reduced_forms())
def test_canonical_is_the_full_minimum(fds):
    f, D, s = fds
    rep = canonical(s)
    assert rep.coeffs() == full_minimum(f, D)
    assert canonical(rep) == rep
