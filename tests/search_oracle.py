"""Composition through concordant forms found by a lattice search.

This is the way ``compose.concordant_pair`` used to find its
representatives: try the primitive vectors (x, y) shell by shell in
height order until f(x, y) is nonzero and coprime to the target.  The
tests use ``compose_by_search`` as an independent reference for the
closed-form construction; it agrees class for class by Gauss's theorem.
"""

from math import gcd

from qforms.errors import NotCoprimeContent
from qforms.forms import Form, _ext_gcd, content, discriminant
from square_oracle import extend_unimodular, substitute


def _height_shells(limit):
    # (1, 0) and (0, 1) first, then shells by height in a fixed order
    yield (1, 0)
    yield (0, 1)
    for h in range(1, limit + 1):
        for x in range(-h, h + 1):
            for y in range(-h, h + 1):
                if max(abs(x), abs(y)) == h and (x, y) not in ((1, 0), (0, 1)) and gcd(x, y) == 1:
                    yield (x, y)


def with_leading_by_search(f, coprime_to, limit=1 << 12):
    """An equivalent form with nonzero leading coefficient coprime to coprime_to."""
    for x, y in _height_shells(limit):
        v = f(x, y)
        if v != 0 and gcd(v, coprime_to) == 1:
            g = extend_unimodular(x, y)
            return substitute(f, g.m11, g.m12, g.m21, g.m22)
    raise NotCoprimeContent(f"no representation coprime to {coprime_to} found for {f}")


def compose_by_search(f1, f2):
    """A form in [f1] * [f2] (equal discriminants, coprime contents)."""
    D = discriminant(f1)
    g1 = with_leading_by_search(f1, content(f2))
    g2 = with_leading_by_search(f2, g1.a)
    a1, a2 = g1.a, g2.a
    # b = b1 mod 2a1 and b = b2 mod 2a2; the parities of b1, b2 agree
    _, u, _ = _ext_gcd(2 * a1, 2 * a2)
    b = g1.b + 2 * a1 * u * ((g2.b - g1.b) // 2)
    a = a1 * a2
    return Form(a, b, (b * b - D) // (4 * a))
