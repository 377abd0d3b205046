"""The pairwise loops compose one pair per bar orbit.

The bar is an automorphism of composition, bar(x) bar(y) = bar(x y), so
``OrientedClassGroup.table`` composes one of each unordered pair {i, j}
and {bar i, bar j}, and the coset step of ``enumerate_realizable_pairs``
composes one of each pair {s, t s} and its bar.  The counts below are
computed independently, through ``class_bar``; the digests pin the
outputs at the discriminants where the saving is largest, recorded
before the loops skipped the mirrored pairs (``digest`` of
``tests/test_class_list.py``).
"""

import pytest

from qforms import compose
from qforms.compose import class_bar, class_group
from qforms.errors import DomainError
from qforms.seifert import enumerate_realizable_pairs
from test_class_list import digest


def bar_orbits(D):
    """The orbits of the unordered pairs i <= j of composed classes (the
    positive ones for D < 0) under (i, j) -> (bar i, bar j)."""
    elements = class_group(D).elements
    index = {s: i for i, s in enumerate(elements)}
    bar = [index[class_bar(s)] for s in elements]
    composed = [i for i, s in enumerate(elements) if D > 0 or s.coeffs()[0] > 0]
    orbits = set()
    for i in composed:
        for j in composed:
            if i <= j:
                orbits.add(min((i, j), tuple(sorted((bar[i], bar[j])))))
    return len(orbits)


@pytest.mark.parametrize("D, orbits", [(-10007, 1521), (3000001, 931)])
def test_table_composes_one_pair_per_bar_orbit(monkeypatch, D, orbits):
    group = class_group(D)
    calls = []
    compose_reduced = compose._compose_reduced

    def counted(t1, t2, D):
        calls.append((t1, t2))
        return compose_reduced(t1, t2, D)

    monkeypatch.setattr(compose, "_compose_reduced", counted)
    table = group.table()
    assert len(calls) == bar_orbits(D) == orbits
    assert min(map(min, table)) == 0  # no entry left unset


def test_class_group_digest_where_the_table_halves():
    rows = []
    for D in [-1000003, -99999, -10007, -5279, 3000001, 1000033, 19399381, 1001**2, 631**2]:
        try:
            rows.append([D, class_group(D).to_dict()])
        except DomainError as e:  # 1001^2 is past the table's budget
            rows.append([D, e.code])
    assert digest(rows) == "ce05127814f9479a"


def test_realizable_pairs_digest_where_the_coset_halves():
    rows = [[D, flag, enumerate_realizable_pairs(D, include_nonprimitive=flag)]
            for D in [-1000003, -99999, -9999, -5279, 3000001, 66978001, 1001**2, 25 * 40009]
            for flag in (False, True)]
    assert digest(rows) == "a9f3f90428f8c66d"
