"""One meaning per class: ``FormClass(rep, disc)`` checks disc against rep
and stores the canonical representative of the class.

``FormClass(Form(3, 1, 2), -23)`` names the class [2,-1,3] by another of
its forms; each answer about it is pinned against the class named by its
canonical form.
"""

from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import large_sl2_matrices, primitive_form
from qforms.compose import (class_bar, class_compose, class_group, identity_class, phi_n, s_plus_subgroup,
                            special_classes, special_square)
from qforms.errors import DomainError
from qforms.forms import Form, FormClass, act, discriminant, form_class
from qforms.seifert import b4_distinguishable, realizable_disjoint_pair

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

S = FormClass(Form(3, 1, 2), -23)  # the class of [2,-1,3], named by another form
T = form_class(2, -1, 3)


def test_the_stored_representative_is_canonical():
    assert S.representative == Form(2, -1, 3)
    assert S == T and hash(S) == hash(T)


def test_answers_do_not_depend_on_the_form_that_names_the_class():
    assert realizable_disjoint_pair(T, S) == realizable_disjoint_pair(T, T) == (True, (1, 6))
    assert b4_distinguishable(S, T) is False
    g = class_group(-23)
    assert g.element_order(S) == g.element_order(T) == 3
    assert class_bar(S) == class_bar(T) == form_class(2, 1, 3)


@pytest.mark.parametrize("rep, disc, code", [
    (Form(1, 1, 1), 5, "mismatched-discriminant"),  # the form's discriminant is -3
    (Form(1, 1, 1), 0, "zero-discriminant"),
    (Form(1, 2, 1), 0, "zero-discriminant"),
    (Form(1, 2, 1), 5, "zero-discriminant"),
])
def test_a_discriminant_other_than_the_forms_is_refused(rep, disc, code):
    # refused at once with its own code, not later with one that names
    # another fault (class_compose of Form(1, 1, 1) taken at 5 says zero-form)
    with pytest.raises(DomainError) as exc:
        FormClass(rep, disc)
    assert exc.value.code == code


def test_classes_the_library_builds_unchecked_are_canonical():
    # each equals the class the checked constructor makes of its representative;
    # phi_n takes (a mod N) x^2 + N x y as canonical with no reduction
    built = [phi_n(N, a) for N in range(1, 22, 2) for a in range(-N, 2 * N) if gcd(a, N) == 1]
    for D in (-23, -71, -1175, -400, 145, 905, 2301, 396, 225):
        g = class_group(D)
        x = g.elements[-1]
        built += [*g.elements, class_compose(x, x), class_bar(x), identity_class(D)]
        if D % 4 == 1:
            built += [*s_plus_subgroup(D), *(c.cls for c in special_classes(D))]
            built += [special_square(c.a, c.c) for c in special_classes(D)]
    for s in built:
        assert FormClass(s.representative, s.disc) == s, s


@st.composite
def moved_forms(draw):
    """A form f of each regime, D < 0 of both signs, D > 0 not a square and
    D a square, primitive or a multiple, and an SL2(Z) element g whose
    entries reach about 10^12, so that act(g, f) has coefficients up to
    about 10^30."""
    regime = draw(st.sampled_from(("definite", "indefinite", "square")))
    if regime == "square":
        d = draw(st.integers(1, 200)) ** 2
    elif regime == "definite":
        d = -4 * draw(st.integers(1, 25000)) + draw(st.sampled_from((0, 1)))
    else:
        d = 4 * draw(st.integers(1, 1000)) + draw(st.sampled_from((0, 1)))
        assume(isqrt(d) ** 2 != d)
    m = draw(st.sampled_from((1, 1, 2, 3)))
    f = primitive_form(draw, d)
    return Form(m * f.a, m * f.b, m * f.c), draw(large_sl2_matrices(10**6))


@PROPERTY
@given(moved_forms())
def test_a_class_named_by_a_moved_form_is_the_class_of_the_form(fg):
    f, g = fg
    moved = act(g, f)
    assert FormClass(moved, discriminant(f)) == form_class(*f.coeffs())
