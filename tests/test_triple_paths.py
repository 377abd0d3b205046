"""The class-group loops that compose and reduce coefficient triples,
against the FormClass-level references in ``formclass_oracle``."""

import pytest

from formclass_oracle import realizable_pairs_by_class, reduced_definite, s_plus_subgroup_by_class
from qforms.compose import _reduced_definite, class_compose, class_group, s_plus_subgroup
from qforms.errors import MismatchedDiscriminant
from qforms.forms import form_class
from qforms.seifert import enumerate_realizable_pairs


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
