"""One walk for a cycle and its sigma image: ``forms._walk_pair``.

sigma(a, b, c) = (-a, b, -c) keeps forms reduced and commutes with the
neighbor step, so it carries each reduced cycle onto a cycle.
``compose._class_triples`` lists the Markov forms with a > 0 only and walks
one cycle of each pair {C, sigma C} that holds one of them, keeping the
least form of both.  These tests hold the walk to the textbook cycles, pin
how many walks a class group takes, and compare class groups with the
reference that takes one canonical call per reduced form.
"""

import random
from math import isqrt

import pytest

import qforms.compose as compose
import qforms.forms as forms
from classgroup_oracle import class_group_by_canonical
from qforms.compose import class_group
from qforms.errors import TooLarge
from qforms.forms import Form, _walk_pair
from test_forms import all_reduced_forms, textbook_cycle


def sigma(f):
    return Form(-f.a, f.b, -f.c)


def key(f):
    """The key of f's sigma orbit, the one with a > 0."""
    return (abs(f.a), f.b, -abs(f.c))


def test_every_reduced_form_small_d():
    # all 956 non-square D = 0, 1 mod 4 up to 2000, every reduced form of
    # both signs of a, primitive or not.  A stop set of every key of D keeps
    # the keys of the forms on neither cycle; one of the last form of the
    # cycle and of the zero form, which is on no cycle, is struck off in
    # the phase that tests only the b of the set
    checked = own_image = 0
    for D in range(5, 2001):
        if D % 4 > 1 or isqrt(D) ** 2 == D:
            continue
        sq = isqrt(D)
        reduced = all_reduced_forms(D)
        cycle_of = {}
        for f in reduced:
            if f not in cycle_of:
                cycle = textbook_cycle(f, D)
                cycle_of.update(dict.fromkeys(cycle, cycle))
        every = {key(f) for f in reduced}
        for f in reduced:
            own, image = cycle_of[f], cycle_of[sigma(f)]
            least = (min(g.coeffs() for g in own), min(g.coeffs() for g in image))
            stop = set(every)
            assert _walk_pair(*f.coeffs(), D, sq, stop) == least, (D, f)
            assert stop == every - {key(g) for g in own + image}
            stop = {key(own[-1]), (0, 0, 0)}
            assert _walk_pair(*f.coeffs(), D, sq, stop) == least and stop == {(0, 0, 0)}
            checked += 1
            own_image += own is image
    assert (checked, own_image) == (37104, 11960)


def test_pair_walk_is_too_large_past_the_budget(monkeypatch):
    # the six forms of the cycle of (-6, 8, 3) of D = 136 take three passes;
    # its sigma image is another cycle
    f = (-6, 8, 3)
    assert _walk_pair(*f, 136, isqrt(136), set()) == ((-6, 8, 3), (-6, 4, 5))
    monkeypatch.setattr(forms, "_WALK_MAX", 3)
    assert _walk_pair(*f, 136, isqrt(136), set()) == ((-6, 8, 3), (-6, 4, 5))
    monkeypatch.setattr(forms, "_WALK_MAX", 2)
    with pytest.raises(TooLarge):
        _walk_pair(*f, 136, isqrt(136), set())


@pytest.mark.parametrize("D, h, walks", [
    (3000001, 60, 30),
    (19399380, 128, 64),
    # the negative principal form is principal: every cycle is its own image
    (100000001, 720, 720),
    (99999989, 3, 3),
])
def test_one_walk_per_pair_of_cycles(monkeypatch, D, h, walks):
    calls = []

    def spy(*args):
        calls.append(args[:3])
        return _walk_pair(*args)

    monkeypatch.setattr(compose, "_walk_pair", spy)
    assert class_group(D).order == h and len(calls) == walks


def test_class_groups_match_the_reference():
    # 30 seeded D in [2 * 10^4, 2 * 10^6], log-uniform, against one
    # canonical call per reduced form, which walks every form's whole cycle,
    # and a table composed pair by pair
    rng = random.Random(7)
    Ds = []
    while len(Ds) < 30:
        D = round(2 * 10**4 * 100 ** rng.random())
        if D % 4 < 2 and isqrt(D) ** 2 != D:
            Ds.append(D)
    for D in Ds:
        assert class_group(D).to_dict() == class_group_by_canonical(D), D
