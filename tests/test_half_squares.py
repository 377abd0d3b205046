"""Realizable pairs and the existence tests from T', the special squares
without the identity and with one of each inverse pair {t, bar(t)}."""

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import qforms.seifert
from coset_oracle import realizable_pairs_over_all_squares
from qforms.compose import (
    _half_special_squares,
    class_bar,
    class_compose,
    class_group,
    divisor_pairs,
    identity_class,
    special_square,
)
from qforms.forms import form_class
from qforms.seifert import enumerate_realizable_pairs, nonisotopic_exists, prescribed_form_exists

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# D = 1 - 4m for |m| up to 2.5 * 10^11, so |D| up to about 10^12
large_discs = st.integers(-25 * 10**10, 25 * 10**10).map(lambda m: 1 - 4 * m)
# every special square of D > 0 non-square walks a whole reduced cycle,
# about sqrt(D) / h forms, so listing them all stays below D = 10^7 there
all_squares_discs = st.one_of(st.integers(1, 25 * 10**10), st.integers(-25 * 10**5, -1)).map(
    lambda m: 1 - 4 * m)


@pytest.mark.parametrize("include_nonprimitive", [False, True])
def test_pairs_match_all_squares_negative(include_nonprimitive):
    checked = 0
    for D in range(-1999, -2, 4):
        pairs = enumerate_realizable_pairs(D, include_nonprimitive=include_nonprimitive)
        assert pairs == realizable_pairs_over_all_squares(D, include_nonprimitive), D
        checked += 1
    assert checked == 500


def test_pairs_match_all_squares_positive():
    checked = squares = 0
    for D in range(5, 2001, 4):
        for flag in (False, True):
            assert (enumerate_realizable_pairs(D, include_nonprimitive=flag)
                    == realizable_pairs_over_all_squares(D, flag)), (D, flag)
        checked += 1
        squares += isqrt(D) ** 2 == D
    assert (checked, squares) == (499, 21)


def bar_orbit_compositions(D):
    """The compositions of the coset step: for each t in T', one per orbit
    of the involution s -> bar(t s) on the classes composed (the positive
    ones for D < 0), (k + f_t)/2 for k classes of which f_t are fixed."""
    classes = [s for s in class_group(D).elements if D > 0 or s.coeffs()[0] > 0]
    squares = {special_square(a, c) for a, c in divisor_pairs((1 - D) // 4)} - {identity_class(D)}
    total = 0
    for t in {min(t, class_bar(t), key=lambda s: s.coeffs()) for t in squares}:
        fixed = sum(class_bar(class_compose(t, s)) == s for s in classes)
        assert (len(classes) + fixed) % 2 == 0
        total += (len(classes) + fixed) // 2
    return total


def coset_calls(monkeypatch, D):
    calls = []
    compose_reduced = qforms.seifert._compose_reduced

    def counted(t1, t2, D):
        calls.append((t1, t2))
        return compose_reduced(t1, t2, D)

    monkeypatch.setattr(qforms.seifert, "_compose_reduced", counted)
    enumerate_realizable_pairs(D)
    return len(calls)


def test_compositions_are_h_times_half_squares(monkeypatch):
    D = -5279
    squares = {special_square(a, c) for a, c in divisor_pairs((1 - D) // 4)}
    nontrivial = squares - {identity_class(D)}
    self_inverse = sum(class_bar(t) == t for t in nontrivial)
    half = (len(nontrivial) + self_inverse) // 2  # one of each inverse pair
    calls = coset_calls(monkeypatch, D)
    h = class_group(D).order
    assert (h, len(squares), half) == (174, 31, 15)
    # one per bar orbit of the positive classes, about h // 2 * half / 2
    assert calls == bar_orbit_compositions(D) == 660


def test_coset_composes_one_pair_per_bar_orbit_positive(monkeypatch):
    D = 3000001
    assert (class_group(D).order, len(_half_special_squares(D))) == (60, 15)
    assert coset_calls(monkeypatch, D) == bar_orbit_compositions(D) == 465


@PROPERTY
@given(D=all_squares_discs)
def test_special_squares_closed_under_inversion(D):
    squares = {special_square(a, c) for a, c in divisor_pairs((1 - D) // 4)}
    assert {class_bar(t) for t in squares} == squares
    ident = identity_class(D)
    half = {form_class(*t) for t in _half_special_squares(D)}
    assert ident in squares and ident not in half
    assert half | {class_bar(t) for t in half} | {ident} == squares
    assert all(class_bar(t) not in half or class_bar(t) == t for t in half)


@PROPERTY
@given(D=large_discs)
def test_existence_tests_match_their_definitions(D):
    ident = identity_class(D)
    witnesses = divisor_pairs((1 - D) // 4)
    nontrivial = next(((True, w) for w in witnesses if special_square(*w) != ident), (False, None))
    assert nonisotopic_exists(D) == nontrivial
    fourth = next(((True, w) for w in witnesses
                   if class_compose(special_square(*w), special_square(*w)) != ident), (False, None))
    assert prescribed_form_exists(D) == fourth
