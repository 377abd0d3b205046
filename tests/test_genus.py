"""Genus theory as an oracle that shares no code with composition or
reduction (Cox, Primes of the form x^2 + ny^2, Prop. 3.11 and Thm. 3.15).

For a primitive form f of discriminant D and an odd prime p | D, the
values of f prime to p are all squares mod p or all non-squares: mod p, f
is a times a square.  So the character chi_p(f) = (n/p), for any such
value n, is well defined on classes, and it is multiplicative under
composition, since the composite represents the products of the values of
its factors.  A primitive form takes a value prime to p among a, c and
a + b + c: if p divides a and c, it does not divide b.

The classes of order at most 2, those with bar(t) = t, number 2^(mu - 1),
where mu is r, the number of odd primes dividing D, plus a term read off
D/4 mod 8 for even D: +0 at 1 or 5, +1 at 2, 3, 4, 6 or 7, and +2 at 0.

Discriminants are seeded non-squares of both signs with |D| <= 10^5;
Legendre symbols come from Euler's criterion and the primes from trial
division.
"""

import random
from math import isqrt

import pytest

from qforms.compose import _class_triples, _compose_reduced
from qforms.forms import _canonical_bar


def odd_primes(D):
    n, out, p = abs(D), [], 3
    while n % 2 == 0:
        n //= 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    return out + ([n] if n > 1 else [])


def character(t, p):
    """(n/p) for a value n of the primitive form t prime to p, by Euler's criterion."""
    a, b, c = t
    n = next(v for v in (a, c, a + b + c) if v % p)
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def mu(D):
    r = len(odd_primes(D))
    if D % 2:
        return r
    return r + {1: 0, 5: 0, 0: 2}.get(D // 4 % 8, 1)


def discriminants(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        D = rng.choice((1, -1)) * rng.randint(5, 10**5)
        if D % 4 in (0, 1) and not (D > 0 and isqrt(D) ** 2 == D):
            out.append(D)
    return out


@pytest.mark.parametrize("D", discriminants(2027, 60))
def test_characters_multiply(D):
    triples, _ = _class_triples(D)
    rng = random.Random(D)
    primes = odd_primes(D)
    for _ in range(8):
        x, y = rng.choice(triples), rng.choice(triples)
        xy = _compose_reduced(x, y, D)
        for p in primes:
            assert character(xy, p) == character(x, p) * character(y, p), (D, x, y, xy, p)


@pytest.mark.parametrize("D", discriminants(2028, 60))
def test_two_torsion_count(D):
    triples, _ = _class_triples(D)
    ambiguous = sum(_canonical_bar(*t, D) == t for t in triples)
    assert ambiguous == 2 ** (mu(D) - 1), (D, len(triples))
