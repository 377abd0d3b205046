"""``compose._roots_mod_4a`` against brute force.

The class lists check the root sieve only through the forms it yields;
this holds the (a, z) pairs themselves to a scan over every a <= top and
0 <= z < 2a, and pins their order, which ``_markov_forms`` relies on to
list the principal translate first.
"""

import hashlib
import random

from qforms.compose import _roots_mod_4a


def brute_roots(D, top):
    return [(a, z) for a in range(1, top + 1) for z in range(2 * a) if (z * z - D) % (4 * a) == 0]


def sieve_cases():
    """Seeded (D, top) with top <= 200: D of both signs, = 0 and 1 mod 4,
    and D divisible by p^2 and p^3 for odd p up to 13, so that roots
    divisible by p are lifted to every p^j <= top."""
    rng = random.Random(20231)
    cases = []
    for p in (3, 5, 7, 11, 13):
        for k in (2, 3):
            for residue in (0, 1):
                for sign in (1, -1):
                    while True:
                        D = sign * p**k * rng.randint(1, 3000)
                        if D % 4 == residue:
                            break
                    cases.append((D, rng.randint(p * p, 200)))
    for residue in (0, 1):
        for sign in (1, -1):
            for _ in range(5):
                D = 4 * sign * rng.randint(1, 10**6) + residue
                cases.append((D, rng.randint(1, 200)))
    return cases


# SHA-256 over the repr of every (D, top, _roots_mod_4a(D, top)) of
# sieve_cases(), in order; computed with the sieve that took each prime
# power's roots from a helper that wrote every power of p at once
ROOTS_DIGEST = "3f8c2479d2d132a3fbfda1c8d65eb1b5e3c26191d62bb6edd11f12caa11966a2"


def test_roots_match_brute_force():
    for D, top in sieve_cases():
        assert sorted(_roots_mod_4a(D, top)) == brute_roots(D, top), (D, top)


def test_roots_order_is_pinned():
    h = hashlib.sha256()
    for D, top in sieve_cases():
        h.update(repr((D, top, _roots_mod_4a(D, top))).encode())
    assert h.hexdigest() == ROOTS_DIGEST
