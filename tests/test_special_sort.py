"""Special classes and T' are sorted into classes by ``compose._classes``.

For positive non-square D it reduces each special form, or each special
square, with no cycle walk and walks each cycle they meet once, as the
class list does with the Markov forms.  The digests pin the special
classes, their squares, T' and the subgroup S+ byte for byte: each is the
first 16 hex digits of the SHA-256 of ``json.dumps(rows, sort_keys=True)``,
recorded while every form was still canonicalized one at a time.
"""

import hashlib
import json

from qforms import cli, compose
from qforms.compose import special_classes, special_square, s_plus_subgroup, _half_special_squares
from qforms.errors import DomainError
from test_forms import time_limit

# 1 + 4 * 2*3*5*...*23: 512 divisor pairs, one special class, whose
# special forms were canonicalized one walk each (16.6 s with their
# squares, 2-vCPU host)
LARGE = 892371481


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def row(D):
    try:
        specials = [[s.a, s.c, list(s.cls.coeffs()), list(special_square(s.a, s.c).coeffs())]
                    for s in special_classes(D)]
        return [D, specials, [list(t) for t in _half_special_squares(D)],
                [list(s.coeffs()) for s in s_plus_subgroup(D)]]
    except DomainError as exc:
        return [D, exc.code]


def test_small_discriminants_digest():
    assert digest([row(D) for D in range(-4003, 4004) if D % 4 == 1]) == "f5e5b10e33d22c59"


def test_composite_discriminants_digest():
    # highly composite (1 - D)/4 of either sign, and an odd square
    Ds = [1 + 4 * 30030, 1 + 4 * 55440, 1 - 4 * 30030, 1 - 4 * 55440, 9**2 * 101**2, 1 + 4 * 510510]
    assert digest([row(D) for D in Ds]) == "f82817eca3910f0f"


def test_one_walk_per_special_class(monkeypatch):
    walks = []
    walk = compose._walk

    def spy(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(compose, "_walk", spy)
    with time_limit(1.0):
        classes = special_classes(LARGE)
    assert len(walks) == len(classes) == 1


def test_special_squares_of_many_witnesses_in_time(capsys):
    with time_limit(1.0):
        assert len(s_plus_subgroup(LARGE)) == 1
    with time_limit(1.0):
        assert cli.main(["special-squares", "--json", "--", str(LARGE)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["disc"] == LARGE and len(doc["squares"]) == 1
