"""Positive-discriminant class groups from the Markov range, and the cycle
walk on small integers.

``compose._class_triples`` walks cycles only from the reduced forms
(a, b, c) with 0 < a and 5a^2 <= D, listed from the square roots of D mod
4a, each walk serving the form's cycle and its sigma image
(-a, b, -c); ``forms._walk`` steps on (2|a|, b, 2|c|).  These tests hold both to the
references they replaced: the reduced forms of ``classgroup_oracle``, the
textbook neighbor step of ``test_forms`` and the class groups the full
scan over (b, |a|) produced.
"""

import hashlib
import json
import time
from math import gcd, isqrt

from hypothesis import assume, given, settings, strategies as st

from classgroup_oracle import reduced_forms
from conftest import sl2_matrices
from qforms.cli import main
from qforms.compose import _markov_forms, _sqrt_mod_prime, class_group
from qforms.forms import Form, act, _reduce_indefinite, _walk
from test_forms import check_walk, is_reduced, textbook_cycle, textbook_step, time_limit

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def nonsquare_discriminants(lo, hi):
    return [D for D in range(lo, hi + 1) if D % 4 < 2 and isqrt(D) ** 2 != D]


# SHA-256 over the JSON of class_group(D).to_dict() for every non-square
# discriminant 0 < D <= 20000 (9,859 of them), one line each in increasing
# order; the value was computed with the full scan over (b, |a|) that the
# Markov-range enumeration replaced
CLASS_GROUP_DIGEST = "b69648d83d0dadcbb7eb75eb2f82ddc6b9b5cef75b4316461af64f703a0c1d97"


def test_class_groups_match_the_full_scan():
    digest = hashlib.sha256()
    for D in nonsquare_discriminants(5, 20000):
        doc = class_group(D).to_dict()
        digest.update(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == CLASS_GROUP_DIGEST


def test_every_cycle_holds_a_markov_form():
    # the lemma the enumeration rests on, against the oracle's reduced forms:
    # _markov_forms lists exactly those with a > 0 and 5a^2 <= D, and
    # walking from them and from their sigma images (-a, b, -c) reaches
    # every reduced form.  The oracle is O(D) per discriminant, so it runs
    # to 5000 here; the digest above carries the lemma to 20000
    for D in nonsquare_discriminants(5, 5000):
        sq = isqrt(D)
        every = {f.coeffs() for f in reduced_forms(D)}
        markov = _markov_forms(D, sq)
        assert sorted(markov) == sorted(f for f in every if f[0] > 0 and 5 * f[0] * f[0] <= D)
        reached = set()
        for a, b, c in markov:
            for f in ((a, b, c), (-a, b, -c)):
                if f not in reached:
                    reached.update(g.coeffs() for g in textbook_cycle(Form(*f), D))
        assert reached == every


def test_square_roots_mod_primes():
    # Tonelli-Shanks on every odd prime below 3000 and on primes p = 1 mod 2^k
    # for k up to 16, where it takes the most rounds
    primes = [p for p in range(3, 3000, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))]
    primes += [40961, 65537, 114689, 163841]
    for p in primes:
        for n in {1, 2, 3, 5, 6, p - 1, p // 2, p // 3}:
            n %= p
            if pow(n, (p - 1) // 2, p) == 1:
                r = _sqrt_mod_prime(n, p)
                assert 0 <= r < p and r * r % p == n


@PROPERTY
@given(D=st.integers(5, 2 * 10**5))
def test_markov_forms_by_trial(D):
    # against a trial of every b = D (mod 2) in the window (sq - 2a, sq];
    # only the forms with a > 0 are listed
    assume(D % 4 < 2 and isqrt(D) ** 2 != D)
    sq = isqrt(D)
    expected = []
    for a in range(1, isqrt(D // 5) + 1):
        for b in range(sq - 2 * a + 1, sq + 1):
            if (b * b - D) % (4 * a) == 0 and gcd(a, b, (b * b - D) // (4 * a)) == 1:
                expected.append((a, b, (b * b - D) // (4 * a)))
    assert sorted(_markov_forms(D, sq)) == sorted(expected)


def test_large_class_group_is_fast():
    # h = 720; the scan over (b, |a|) took 2.2 s (2-vCPU host)
    start = time.perf_counter()
    group = class_group(100000001)
    assert time.perf_counter() - start < 0.5
    assert group.order == 720


def test_longest_pool_cycle_is_within_the_walk_budget():
    # the principal cycle of 485,404 forms, the longest in the benchmark pool
    D = 584637511777
    sq = isqrt(D)
    b = sq - (sq - D) % 2
    least = _walk(1, b, (b * b - D) // 4, D, sq)
    assert least[0] < 0 and least[1] * least[1] - 4 * least[0] * least[2] == D


def test_reduce_on_an_endless_cycle_is_too_large(capsys):
    # D = 10^20 + 129, a prime: its cycle is far longer than the walk budget
    with time_limit(10.0):
        code = main(["reduce", "1", "1", "-25000000000000000032", "--json"])
    assert code == 1 and json.loads(capsys.readouterr().out)["error"] == "too-large"


@st.composite
def reduced_forms_up_to(draw, bound):
    """A reduced form (a, b, c) of a non-square discriminant D <= bound."""
    D = 4 * draw(st.integers(1, bound // 4)) + draw(st.sampled_from((0, 1)))
    assume(isqrt(D) ** 2 != D)
    b = D % 2 + 2 * draw(st.integers(0, 60))
    prod = (b * b - D) // 4
    divisors = [d for d in range(1, 200) if prod % d == 0]
    a = draw(st.sampled_from(divisors)) * draw(st.sampled_from((1, -1)))
    f = act(draw(sl2_matrices(10**4)), Form(a, b, prod // a))
    return Form(*_reduce_indefinite(*f.coeffs(), D, isqrt(D))), D


class TestWalkAgainstTextbook:
    """_walk on (2|a|, b, 2|c|) against the textbook neighbor step, D <= 10^13."""

    @PROPERTY
    @given(fd=reduced_forms_up_to(10**13), k=st.integers(1, 400))
    def test_members_up_to_a_stop(self, fd, k):
        # the walk strikes off the form k textbook steps ahead, and the k + 1
        # members up to it; a cycle of at most k forms is checked whole
        f, D = fd
        assert is_reduced(f, D)
        prefix = [f]
        for _ in range(k):
            prefix.append(textbook_step(prefix[-1], D))
            if prefix[-1] == f:
                check_walk(f, D, prefix[:-1])
                return
        assert _walk(*f.coeffs(), D, isqrt(D), stop={prefix[-1].coeffs()}) is None
        stop = {g.coeffs() for g in prefix}
        assert _walk(*f.coeffs(), D, isqrt(D), stop=stop) is None and not stop
