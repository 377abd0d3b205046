"""The class list every regime composes, and the coset step's budget.

``compose._class_triples`` lists the sorted canonical triples the
algorithms compose, for D < 0 the positive classes only, and the
identity, which each regime's enumeration lists first; ``class_group``
adds the negative half.  The digests pin the outputs built on that list
byte for byte: each is the first 16 hex digits of the SHA-256 of
``json.dumps(rows, sort_keys=True)``, recorded before the list took its
present form.
"""

import hashlib
import json
from math import isqrt

import pytest

from qforms import seifert
from qforms.cli import main
from qforms.compose import class_group, _class_triples, _identity
from qforms.errors import DomainError, TooLarge
from qforms.seifert import enumerate_realizable_pairs
from test_forms import time_limit


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def discriminants(lo, hi):
    return [D for D in range(lo, hi + 1) if D != 0 and D % 4 < 2]


def test_class_group_digest():
    rows = []
    for D in discriminants(-4000, 4000):
        try:
            rows.append([D, class_group(D).to_dict()])
        except DomainError as exc:
            rows.append([D, exc.code])
    assert digest(rows) == "ff5dda88635bdb40"


def test_realizable_pairs_digest():
    rows = [[D, flag, enumerate_realizable_pairs(D, include_nonprimitive=flag)]
            for D in range(-2003, 2004) if D % 4 == 1 for flag in (False, True)]
    assert digest(rows) == "ce283c0c85186bea"


def test_identity_is_listed_first():
    squares = [n * n for n in range(39, 80, 2)]
    for D in discriminants(-1500, 1500) + squares + [-100000007, 100000001, 1000033]:
        triples, identity = _class_triples(D)
        assert identity == _identity(D) and identity in triples, D
        assert triples == sorted(set(triples)), D
        elements = [s.coeffs() for s in class_group(D).elements]
        if D < 0:  # the positive half of the class group
            assert triples == [t for t in elements if t[0] > 0], D
            assert len(elements) == 2 * len(triples), D
        else:
            assert triples == elements, D
        n = isqrt(D) if D > 0 else 0
        if n * n == D:
            assert identity == ((1, n, 0) if n > 1 else (0, 1, 0)), D


class TestCosetBudget:
    # 20,996 positive classes times |T'| = 287 special squares is
    # 6,025,852 compositions, which take well over 300 s unbounded
    D = -122522399

    def test_refused_before_any_composition(self, monkeypatch):
        def compose(*args):
            raise AssertionError("a composition ran before the budget check")

        monkeypatch.setattr(seifert, "_compose_reduced", compose)
        with time_limit(1.0):
            with pytest.raises(TooLarge) as exc:
                enumerate_realizable_pairs(self.D)
        assert exc.value.code == "too-large"

    def test_cli_refuses_in_both_modes(self, capsys):
        with time_limit(1.0):
            code = main(["seifert", "pairs", "--json", "--", str(self.D)])
        out = capsys.readouterr().out
        assert code == 1 and json.loads(out)["error"] == "too-large"
        with time_limit(1.0):
            code = main(["seifert", "pairs", "--", str(self.D)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error[too-large]: ")
