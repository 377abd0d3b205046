import hashlib
import json
import time
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import outcome
from qforms import seifert
from qforms.compose import class_compose, class_group, s_plus_subgroup, special_classes, special_square
from qforms.errors import (
    MismatchedDiscriminant,
    NotCoprime,
    NotNegative,
    NotOddPositive,
    NotOneMod4,
    OutOfRange,
    TooLarge,
)
from qforms.forms import FormClass, discriminant, form_class
from qforms.lattice import is_symplectic, klein_inverse, pair_to_dict, q_of_plane, symplectic_complement
from qforms.seifert import (
    b4_distinguishable,
    enumerate_realizable_pairs,
    feher_klein_pair,
    negdisc_criterion,
    nonisotopic_exists,
    prescribed_form_exists,
    realizable_disjoint_pair,
    squaredisc_criterion,
    _is_prime,
)
from test_forms import time_limit


class TestRealizablePair:
    def test_hmkps_pair(self):
        found, witness = realizable_disjoint_pair(form_class(-1, -1, -6), form_class(-2, 1, -3))
        assert found and witness is not None
        a, c = witness
        assert 1 - 4 * a * c == -23
        assert class_compose(special_square(a, c), form_class(-1, -1, -6)) == form_class(-2, 1, -3)

    def test_diagonal_always_realizable(self):
        found, witness = realizable_disjoint_pair(form_class(2, 1, 3), form_class(2, 1, 3))
        assert found and witness == (1, 6)

    def test_minus_71_counterexample(self):
        assert realizable_disjoint_pair(form_class(1, 1, 18), form_class(3, 1, 6)) == (False, None)

    def test_symmetric(self):
        group = class_group(-23)
        for s1 in group.elements:
            for s2 in group.elements:
                assert (realizable_disjoint_pair(s1, s2)[0]
                        == realizable_disjoint_pair(s2, s1)[0])

    def test_nonprimitive_classes_accepted(self):
        # content-3 classes of discriminant -207 = 9 * (-23)
        s = form_class(3, 3, 18)
        assert s.content == 3
        found, _ = realizable_disjoint_pair(s, s)
        assert found

    def test_rejects_mismatch(self):
        with pytest.raises(MismatchedDiscriminant):
            realizable_disjoint_pair(form_class(1, 1, 6), form_class(1, 1, 18))

    def test_rejects_even_disc(self):
        with pytest.raises(NotOneMod4):
            realizable_disjoint_pair(form_class(1, 0, 1), form_class(1, 0, 1))


class TestExistence:
    def test_minus_23(self):
        assert nonisotopic_exists(-23) == (True, (2, 3))

    def test_minus_11(self):
        assert nonisotopic_exists(-11) == (False, None)

    def test_25(self):
        assert nonisotopic_exists(25)[0] is True

    def test_prescribed(self):
        assert prescribed_form_exists(-23)[0] is True
        assert prescribed_form_exists(-11)[0] is False
        assert prescribed_form_exists(-71)[0] is True

    def test_prescribed_implies_nonisotopic(self):
        for d in range(-399, 0, 4):
            if prescribed_form_exists(d)[0]:
                assert nonisotopic_exists(d)[0]

    def test_identity_only_where_compared(self, monkeypatch):
        # prescribed_form_exists compares t^2 with its bar, never with the
        # identity; nonisotopic_exists reduces the identity once for D < 0
        # and square D, and not at all for positive non-square D
        ds = [-23, -11, -71, -4, 1, 9, 25, 225, 5, 13, 21, 4]
        want = {d: [outcome(fn, d) for fn in (prescribed_form_exists, nonisotopic_exists)] for d in ds}
        calls = []
        real = seifert._identity
        monkeypatch.setattr(seifert, "_identity", lambda D: calls.append(D) or real(D))
        for d in ds:
            calls.clear()
            assert outcome(prescribed_form_exists, d) == want[d][0]
            assert calls == []
            assert outcome(nonisotopic_exists, d) == want[d][1]
            assert calls == ([d] if d < 0 or isqrt(d) ** 2 == d else [])


class TestDiscriminantGate:
    """Each entry point that takes D refuses D = 0 and D = 2, 3 mod 4 as
    not-a-discriminant, then D = 0 mod 4 as not-one-mod-4, before any
    budget; negdisc_criterion then refuses D > 0 as not-negative."""

    @pytest.mark.parametrize("D", [*range(-8, 10), 4 * 10**30 + 2])
    @pytest.mark.parametrize("fn", [special_classes, s_plus_subgroup, nonisotopic_exists,
                                    prescribed_form_exists, enumerate_realizable_pairs,
                                    negdisc_criterion], ids=lambda fn: fn.__name__)
    def test_error_codes(self, fn, D):
        if D == 0 or D % 4 > 1:
            expected = "not-a-discriminant"
        elif D % 4 == 0:
            expected = "not-one-mod-4"
        else:
            expected = "not-negative" if fn is negdisc_criterion and D > 0 else None
        with time_limit(1.0):
            kind, value = outcome(fn, D)
        assert (value if kind == "err" else None) == expected


class TestCriteria:
    def test_negative_examples(self):
        assert negdisc_criterion(-23) is True
        assert negdisc_criterion(-35) is False   # (1-D)/4 = 9 = 3^2
        assert negdisc_criterion(-3) is False    # (1-D)/4 = 1

    def test_negative_requires_negative(self):
        with pytest.raises(NotNegative):
            negdisc_criterion(25)

    def test_agrees_with_search(self):
        for d in range(-499, 0, 4):
            assert negdisc_criterion(d) == nonisotopic_exists(d)[0]

    def test_square_examples(self):
        assert squaredisc_criterion(5) is True
        assert squaredisc_criterion(3) is False
        assert squaredisc_criterion(1) is False

    def test_square_rejects(self):
        with pytest.raises(NotOddPositive):
            squaredisc_criterion(4)
        with pytest.raises(NotOddPositive):
            squaredisc_criterion(-5)

    def test_square_agrees_with_search(self):
        for n in range(1, 22, 2):
            assert squaredisc_criterion(n) == nonisotopic_exists(n * n)[0]


class TestIsPrime:
    """The deterministic Miller-Rabin test behind negdisc_criterion."""

    def test_agrees_with_trial_division(self):
        small = [p for p in range(2, 317) if all(p % q for q in range(2, p))]
        for m in range(-3, 10**5 + 1):
            expected = m >= 2 and all(m % p for p in small if p * p <= m and p != m)
            assert _is_prime(m) is expected, m

    def test_strong_pseudoprimes(self):
        # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
        # 2, 3, 5, 7 and 3825123056546413051 = 149491 * 747451 * 34233211 to
        # every prime base up to 23
        assert _is_prime(3215031751) is False
        assert _is_prime(3825123056546413051) is False

    def test_large(self):
        assert _is_prime(10**18 + 9) is True
        assert _is_prime(1000000007 * 1000000009) is False
        start = time.perf_counter()
        assert negdisc_criterion(1 - 4 * (10**18 + 9)) is False
        assert negdisc_criterion(1 - 4 * 1000000007 ** 2) is False
        assert negdisc_criterion(1 - 4 * 1000000007 * 1000000009) is True
        assert time.perf_counter() - start < 1.0

    def test_beyond_the_exact_range(self):
        # 3317044064679887385961981 is the least strong pseudoprime to the
        # first 13 prime bases; it and everything above it are refused
        assert _is_prime(3317044064679887385961981 - 2) is False  # 17 * 195120239098816905056587
        for m in (3317044064679887385961981, 10**30):
            with pytest.raises(TooLarge) as exc:
                negdisc_criterion(1 - 4 * m)
            assert exc.value.code == "too-large"


class TestB4Distinguishable:
    def test_examples(self):
        assert b4_distinguishable(form_class(-1, -1, -6), form_class(-2, 1, -3)) is True
        assert b4_distinguishable(form_class(2, 1, 3), form_class(2, -1, 3)) is False
        assert b4_distinguishable(form_class(2, 1, 3), form_class(2, 1, 3)) is False

    def test_rejects_mismatch(self):
        with pytest.raises(MismatchedDiscriminant):
            b4_distinguishable(form_class(1, 1, 6), form_class(1, 1, 18))


def _pairwise_oracle(D, include_nonprimitive):
    """The enumeration by definition: a witness search on every i <= j pair."""
    classes = list(class_group(D).elements)
    if include_nonprimitive:
        m = 3
        while m * m <= abs(D):
            if D % (m * m) == 0:  # m odd, so D / m^2 = 1 mod 4 as well
                for s in class_group(D // (m * m)).elements:
                    classes.append(form_class(*(m * x for x in s.coeffs())))
            m += 2
        classes.sort(key=lambda s: s.coeffs())
    out = []
    for i, s1 in enumerate(classes):
        for s2 in classes[i:]:
            if realizable_disjoint_pair(s1, s2)[0]:
                out.append({
                    "s1": list(s1.coeffs()),
                    "s2": list(s2.coeffs()),
                    "b4_distinguishable": b4_distinguishable(s1, s2),
                })
    out.sort(key=lambda d: (d["s1"], d["s2"]))
    return out


class TestEnumeratePairs:
    def test_minus_23_table(self):
        pairs = enumerate_realizable_pairs(-23)
        diagonal = [p for p in pairs if p["s1"] == p["s2"]]
        off = {(tuple(p["s1"]), tuple(p["s2"])) for p in pairs if p["s1"] != p["s2"]}
        assert len(diagonal) == 6
        # the six unordered off-diagonal pairs, exactly
        assert off == {
            ((1, 1, 6), (2, 1, 3)),
            ((1, 1, 6), (2, -1, 3)),
            ((-2, -1, -3), (-1, -1, -6)),
            ((-2, 1, -3), (-1, -1, -6)),
            ((2, -1, 3), (2, 1, 3)),
            ((-2, -1, -3), (-2, 1, -3)),
        }
        # of these, the two bar-related pairs are not distinguishable
        distinguishable = {(tuple(p["s1"]), tuple(p["s2"])) for p in pairs
                           if p["s1"] != p["s2"] and p["b4_distinguishable"]}
        assert distinguishable == off - {((2, -1, 3), (2, 1, 3)),
                                         ((-2, -1, -3), (-2, 1, -3))}

    def test_minus_11_only_diagonal(self):
        pairs = enumerate_realizable_pairs(-11)
        assert all(p["s1"] == p["s2"] for p in pairs)
        assert len(pairs) == class_group(-11).order

    def test_minus_71_excludes_nonorbit_pair(self):
        pairs = enumerate_realizable_pairs(-71)
        assert not any(p["s1"] == [1, 1, 18] and p["s2"] == [3, 1, 6] for p in pairs)

    def test_diagonal_always_present(self):
        for d in (-23, -47, 25):
            pairs = enumerate_realizable_pairs(d)
            names = {tuple(s.coeffs()) for s in class_group(d).elements}
            diag = {tuple(p["s1"]) for p in pairs if p["s1"] == p["s2"]}
            assert diag == names

    def test_include_nonprimitive(self):
        # disc -207 = 9 * -23: content-3 classes stratify in
        pairs = enumerate_realizable_pairs(-207, include_nonprimitive=True)
        contents = {gcd(gcd(abs(p["s1"][0]), abs(p["s1"][1])), abs(p["s1"][2]))
                    for p in pairs}
        assert 3 in contents and 1 in contents

    def test_sorted_deterministically(self):
        pairs = enumerate_realizable_pairs(-23)
        assert pairs == sorted(pairs, key=lambda p: (p["s1"], p["s2"]))

    @pytest.mark.parametrize("D, include_nonprimitive", [
        *((d, False) for d in range(-299, 0, 4)),
        *((d, False) for d in (5, 13, 17, 21, 25, 45, 49, 145, 221)),
        (-207, True), (-275, True), (225, True),
    ])
    def test_matches_pairwise_definition(self, D, include_nonprimitive):
        pairs = enumerate_realizable_pairs(D, include_nonprimitive=include_nonprimitive)
        assert pairs == _pairwise_oracle(D, include_nonprimitive)

    def test_large_discriminant_within_budget(self):
        # h = 174 classes and 64 witnesses: 15,225 pair tests, but 174 cosets
        t0 = time.perf_counter()
        pairs = enumerate_realizable_pairs(-5279)
        assert time.perf_counter() - t0 < 5.0
        names = {s.coeffs() for s in class_group(-5279).elements}
        assert len(names) == 174
        assert {tuple(p["s1"]) for p in pairs if p["s1"] == p["s2"]} == names
        assert pairs == sorted(pairs, key=lambda p: (p["s1"], p["s2"]))


# SHA-256 over the JSON of pair_to_dict and both target triples of
# feher_klein_pair(p, q, k, n), one line per call, for coprime 2 <= p, q <= 30,
# -2 <= k <= 2 and n in (1, 2): 4,960 calls.  The value was computed when
# s and r came from an extended Euclid loop on (p, q)
FEHER_DIGEST = "bb524bfa34394b9f8bbbcf97cb28de212224cb1ec9a7830b59b2546db367cc6a"


class TestFeher:
    def test_pairs_match_the_digest(self):
        digest = hashlib.sha256()
        for p in range(2, 31):
            for q in range(2, 31):
                if gcd(p, q) != 1:
                    continue
                for k in range(-2, 3):
                    for n in (1, 2):
                        pair, t1, t2 = feher_klein_pair(p, q, k, n)
                        row = {"pair": pair_to_dict(pair), "l": list(t1.coeffs()), "pp": list(t2.coeffs())}
                        digest.update(json.dumps(row, separators=(",", ":")).encode() + b"\n")
        assert digest.hexdigest() == FEHER_DIGEST

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.integers(2, 10**15), st.integers(2, 10**15))
    def test_bezout_coefficients(self, p, q):
        # with k = 0 and n = 1 the complement's target is (pq, -1 - 2qr, rs + 1)
        assume(gcd(p, q) == 1)
        _, _, t2 = feher_klein_pair(p, q, 0, 1)
        r = (-1 - t2.b) // (2 * q)
        s, rem = divmod(1 + q * r, p)
        assert rem == 0 and t2.b == -1 - 2 * q * r
        assert p * s - q * r == 1
        assert -q < 2 * s <= q

    def test_target_forms(self):
        pair, t1, t2 = feher_klein_pair(2, 3, 1, 5)
        assert (t1.a, t1.b, t1.c) == (6, -3, 5)
        assert pair.a1.det() == pair.a2.det() == -discriminant(t1)

    def test_symplectic_and_complement_targets(self):
        for params in ((2, 3, 0, 1), (3, 5, 2, 4), (5, 7, 3, 10), (2, 7, 1, 2)):
            pair, t1, t2 = feher_klein_pair(*params)
            plane = klein_inverse(pair)
            assert is_symplectic(plane)
            assert FormClass.of(q_of_plane(plane)) == FormClass.of(t1)
            comp = symplectic_complement(plane)
            assert FormClass.of(q_of_plane(comp)) == FormClass.of(t2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(NotCoprime):
            feher_klein_pair(2, 4, 1, 1)
        with pytest.raises(OutOfRange):
            feher_klein_pair(1, 3, 1, 1)
        with pytest.raises(OutOfRange):
            feher_klein_pair(2, 3, 1, 0)
