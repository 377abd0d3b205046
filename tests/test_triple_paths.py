"""The class-group loops that compose and reduce coefficient triples,
against the FormClass-level references in ``formclass_oracle``."""

import dataclasses

import pytest

from formclass_oracle import realizable_pairs_by_class, reduced_definite, s_plus_subgroup_by_class
from qforms.compose import OrientedClassGroup, _reduced_definite, class_compose, class_group, s_plus_subgroup
from qforms.errors import DomainError, MismatchedDiscriminant
from qforms.forms import form_class
from qforms.seifert import enumerate_realizable_pairs
from test_forms import time_limit


def test_reduced_definite_matches_trial_over_every_b():
    checked = 0
    for D in range(-20000, -2):
        if D % 4 in (0, 1):
            expected = sorted(f.coeffs() for f in reduced_definite(D))
            assert sorted(_reduced_definite(D)) == expected, D
            checked += 1
    assert checked == 10000


@pytest.mark.parametrize("include_nonprimitive", [False, True])
def test_realizable_pairs_match_class_level_cosets(include_nonprimitive):
    # covers the flag on ambiguous forms (b = 0, b = a, a = c), where s = bar(s)
    checked = 0
    for D in range(-2999, -2, 4):
        pairs = enumerate_realizable_pairs(D, include_nonprimitive=include_nonprimitive)
        assert pairs == realizable_pairs_by_class(D, include_nonprimitive), D
        checked += 1
    assert checked == 750


@pytest.mark.parametrize("D", [
    -3, -4, -23, -71, -199, -1087,  # fundamental definite
    -12, -63, -108, -400, -1175,  # non-fundamental definite
    5, 145, 905, 1001,  # positive non-square, fundamental
    125, 396, 2300,  # positive non-square, non-fundamental
    1, 4, 9, 225, 441,  # square
])
def test_table_matches_pairwise_class_compose(D):
    g = class_group(D)
    idx = {s: i for i, s in enumerate(g.elements)}
    assert g.table() == [[idx[class_compose(x, y)] for y in g.elements] for x in g.elements]
    e = g.elements[g.identity_index]
    for s in g.elements:
        n, acc = 1, s
        while acc != e:
            acc, n = class_compose(acc, s), n + 1
        assert g.element_order(s) == n


@pytest.mark.parametrize("D", [-3, -23, -63, -1175, -4999, 5, 145, 905, 2301, 225, 441])
def test_s_plus_subgroup_matches_class_level_closure(D):
    assert s_plus_subgroup(D) == s_plus_subgroup_by_class(D)


def test_element_order_rejects_a_class_of_another_discriminant():
    # it composes on the group's discriminant; a foreign class never reaches
    # the identity, so it is refused instead of looped on
    with pytest.raises(MismatchedDiscriminant):
        class_group(-23).element_order(form_class(1, 1, 5))


def _forged_group(disc, elements, identity_index):
    # OrientedClassGroup has no __init__, so a group that class_group would
    # never return is forged the way class_group fills one in
    group = object.__new__(OrientedClassGroup)
    group.__dict__.update(disc=disc, elements=elements, identity_index=identity_index)
    return group


@pytest.mark.parametrize("i", range(6))
def test_element_order_ignores_the_identity_index(i):
    # the order is the size of the cyclic closure, so even a forged group
    # whose identity_index names another class still gets the true orders
    g = class_group(-23)
    with time_limit(1):
        orders = [_forged_group(-23, g.elements, i).element_order(s) for s in g.elements]
    assert orders == [g.element_order(s) for s in g.elements] == [6, 6, 2, 1, 3, 3]


def test_element_order_refuses_a_group_that_misses_a_power():
    # the closure is bounded by the group order, so a forged group too small
    # to hold the powers of s is refused at once instead of looped on
    g = class_group(-23)
    with time_limit(1), pytest.raises(DomainError):
        _forged_group(-23, g.elements[:1], 0).element_order(g.elements[4])


def test_a_hand_built_group_is_refused():
    # class_group is the one builder of a group, so table() and element_order
    # never meet a group that misses a class or names another identity (with
    # 4 of the 6 classes of -23, 10 of the 16 table entries would be wrong).
    # A direct call and dataclasses.replace both raise
    g = class_group(-23)
    for build in (lambda: OrientedClassGroup(-23, g.elements[2:], 0),
                  lambda: OrientedClassGroup(-23, g.elements, 2),
                  lambda: dataclasses.replace(g, elements=g.elements[:1]),
                  lambda: dataclasses.replace(g, identity_index=2)):
        with pytest.raises(TypeError):
            build()
    assert [g.element_order(s) for s in g.elements] == [6, 6, 2, 1, 3, 3]
