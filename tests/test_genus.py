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

Each special square is a square, so it lies in the principal genus: its
characters chi_p, for the odd p | D, are all +1.

The class number formula checks the count of the D < 0 class list (Cohen,
A Course in Computational Algebraic Number Theory, section 5.3).  Write
D = f^2 D0 with D0 fundamental, and let w = 6, 4 or 2 for D0 = -3, -4 or
any other D0.  Then, with (D0/n) the Kronecker symbol,

    h(D0) = -(w / (2|D0|)) sum_{n=1}^{|D0|-1} (D0/n) n,
    h(D) = h(D0) f / u prod_{p | f} (1 - (D0/p) / p),

where u = w/2 for f > 1 and u = 1 for f = 1.  (D0/n) is multiplicative in
n: it is read off D0 mod 8 at 2 and from Euler's criterion at odd primes,
and a smallest-prime-factor sieve extends it to every n < |D0|.

Discriminants are seeded non-squares of both signs with |D| <= 10^5, then
seeded D < 0 with 10^5 < |D| <= 10^6 for the class number and seeded
D = 1 (mod 4) of both signs with |D| >= 10^7, up to the class-group
budget, for the 2-torsion count and the principal genus.  Legendre
symbols come from Euler's criterion and the primes from trial division.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from qforms.compose import _class_triples, _compose_reduced, _half_special_squares
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


def budget_discriminants(seed, count):
    """Seeded non-square D = 1 (mod 4) of alternating sign with |D| >= 10^7,
    inside the class-group budget -2.4 * 10^8 < D < 1.6 * 10^8."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        D = -rng.randint(10**7, 24 * 10**7 - 1) if len(out) % 2 else rng.randint(10**7, 16 * 10**7 - 1)
        if D % 4 == 1 and not (D > 0 and isqrt(D) ** 2 == D):
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


@pytest.mark.parametrize("D", discriminants(2028, 60) + budget_discriminants(2032, 12))
def test_two_torsion_count(D):
    triples, _ = _class_triples(D)
    ambiguous = sum(_canonical_bar(*t, D) == t for t in triples)
    assert ambiguous == 2 ** (mu(D) - 1), (D, len(triples))


def fundamental(D):
    """(D0, f) with D = f^2 D0 and D0 a fundamental discriminant."""
    d, s, n, p = (1 if D > 0 else -1), 1, abs(D), 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            d *= p
        p += 1
    d *= n  # D = s^2 d with d squarefree
    return (d, s) if d % 4 == 1 else (4 * d, s // 2)


def kronecker(D0, p):
    """(D0/p) for a prime p."""
    if p == 2:
        return 0 if D0 % 2 == 0 else 1 if D0 % 8 in (1, 7) else -1
    r = D0 % p
    return 0 if r == 0 else 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def kronecker_row(D0):
    """(D0/n) for 0 <= n < |D0|, by a smallest-prime-factor sieve."""
    m = abs(D0)
    spf = list(range(m))
    for p in range(2, isqrt(m - 1) + 1):
        if spf[p] == p:
            for k in range(p * p, m, p):
                if spf[k] == k:
                    spf[k] = p
    chi = [0, 1] + [0] * (m - 2)
    for n in range(2, m):
        p = spf[n]
        chi[n] = kronecker(D0, p) if p == n else chi[p] * chi[n // p]
    return chi


def class_number(D):
    """h(D) for D < 0, counting the positive definite classes."""
    D0, f = fundamental(D)
    w = {-3: 6, -4: 4}.get(D0, 2)
    h = Fraction(-w, 2 * abs(D0)) * sum(c * n for n, c in enumerate(kronecker_row(D0)))
    h *= Fraction(f, w // 2 if f > 1 else 1)
    for p in odd_primes(f) + ([2] if f % 2 == 0 else []):
        h *= 1 - Fraction(kronecker(D0, p), p)
    return h


def negative_discriminants(seed, count):
    """Seeded D < 0, then D = f^2 D0 with D0 = -3 and -4 and seeded f > 1."""
    rng = random.Random(seed)
    out = [D for D in discriminants(seed, 4 * count) if D < 0][:count]
    return out + [f * f * D0 for D0 in (-3, -4) for f in (2, 3, rng.randint(4, 150))]


def large_negative_discriminants(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        D = -rng.randint(10**5 + 1, 10**6)
        if D % 4 in (0, 1):
            out.append(D)
    return out


@pytest.mark.parametrize("D", negative_discriminants(2029, 20) + large_negative_discriminants(2031, 4))
def test_class_number_formula(D):
    assert class_number(D) == len(_class_triples(D)[0]), D


@pytest.mark.parametrize("D", [D for D in discriminants(2030, 120) if D % 4 == 1][:30]
                         + budget_discriminants(2032, 12))
def test_special_squares_in_principal_genus(D):
    primes = odd_primes(D)
    for t in _half_special_squares(D):
        for p in primes:
            assert character(t, p) == 1, (D, t, p)
