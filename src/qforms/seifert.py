"""Realization and non-isotopy criteria for pairs of Seifert forms.

Everything here is exact arithmetic on classes of discriminant
D = 1 mod 4 (the knot-determinant convention).  A pair of classes
(s1, s2) is *realizable by a disjoint genus-one pair* iff some special
class t = [a x^2 + x y + c y^2] with 1 - 4ac = D satisfies
t^2 * s1 = s2, where (a, c) runs over the divisor pairs of (1 - D)/4.
So the partners of s1 form the coset s1 * T, T the set of special
squares t^2: pairs are enumerated by composing each class with T once,
not by testing pair by pair.  A single pair query returns the first
witness (a, c) in a fixed order (|a| ascending, positive before
negative).

A realizable pair is *B^4-distinguishable* iff s1 is neither s2 nor
bar(s2): the double branched covers of the pushed-in surfaces then have
non-isometric intersection forms.
"""

from __future__ import annotations

from math import isqrt

from .compose import (
    class_bar,
    class_compose,
    class_group,
    divisor_pairs,
    identity_class,
    phi_n,
    special_square,
    _require_one_mod_4,
)
from .errors import MismatchedDiscriminant, NotCoprime, NotNegative, NotOddPositive, OutOfRange, TooLarge
from .forms import Form, FormClass, Mat2, form_class, _ext_gcd
from .lattice import KleinPair, is_symplectic, klein_inverse, q_of_plane, symplectic_complement

Witness = tuple[int, int]


def _special_witnesses(D: int) -> list[Witness]:
    _require_one_mod_4(D)
    return divisor_pairs((1 - D) // 4)


def realizable_disjoint_pair(s1: FormClass, s2: FormClass) -> tuple[bool, Witness | None]:
    """Does some special square carry s1 to s2?  Returns the first witness."""
    if s1.disc != s2.disc:
        raise MismatchedDiscriminant(f"{s1.disc} != {s2.disc}")
    D = s1.disc
    for a, c in _special_witnesses(D):
        t2 = special_square(a, c)
        if class_compose(t2, s1) == s2:
            return True, (a, c)
    return False, None


def nonisotopic_exists(D: int) -> tuple[bool, Witness | None]:
    """Is some special square non-trivial (equivalently, S+_D non-trivial)?"""
    ident = identity_class(D)
    for a, c in _special_witnesses(D):
        if special_square(a, c) != ident:
            return True, (a, c)
    return False, None


def prescribed_form_exists(D: int) -> tuple[bool, Witness | None]:
    """Does some special class have non-trivial fourth power?

    When it does, one of the two disjoint surfaces can be prescribed an
    arbitrary Seifert form of discriminant D.
    """
    ident = identity_class(D)
    for a, c in _special_witnesses(D):
        t2 = special_square(a, c)
        if class_compose(t2, t2) != ident:
            return True, (a, c)
    return False, None


def _prime_power_k2(m: int) -> bool:
    """m in {1} union {p, p^2 : p prime}."""
    if m == 1:
        return True
    if m < 1:
        return False
    if _is_prime(m):
        return True
    r = isqrt(m)
    return r * r == m and _is_prime(r)


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises TooLarge for n >= _MR_BOUND."""
    if n >= _MR_BOUND:
        raise TooLarge(f"primality is decided only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for p in _MR_BASES:
        x = pow(p, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def negdisc_criterion(D: int) -> bool:
    """For D < 0: a non-isotopic pair exists iff (1-D)/4 is not 1, p or p^2.

    Raises TooLarge when (1-D)/4 is 3.3 * 10^24 or more, beyond the exact
    primality test.
    """
    _require_one_mod_4(D)
    if D >= 0:
        raise NotNegative(f"criterion applies to negative discriminants, got {D}")
    return not _prime_power_k2((1 - D) // 4)


def squaredisc_criterion(N: int) -> bool:
    """For odd N > 0: a knot with determinant N^2 and a non-isotopic pair
    of Seifert surfaces exists iff N > 3."""
    if N <= 0 or N % 2 == 0:
        raise NotOddPositive(f"N must be odd and positive, got {N}")
    result = N > 3
    # cross-check through the explicit isomorphism: [Q_{N,2}]^2 = phi(4)
    if result != (phi_n(N, 4 % N if N > 1 else 1) != identity_class(N * N)):
        raise AssertionError(f"phi_N cross-check disagrees with the criterion for N = {N}")
    return result


def b4_distinguishable(s1: FormClass, s2: FormClass) -> bool:
    """s1 not in {s2, bar(s2)}: pushed-in surfaces are non-isotopic in B^4."""
    if s1.disc != s2.disc:
        raise MismatchedDiscriminant(f"{s1.disc} != {s2.disc}")
    return s1 != s2 and s1 != class_bar(s2)


def enumerate_realizable_pairs(D: int, include_nonprimitive: bool = False) -> list[dict]:
    """All unordered realizable pairs {s1, s2} over classes of disc D.

    Primitive classes by default; with ``include_nonprimitive`` the
    classes m * (class of disc D/m^2) for m >= 2 join the list.  Output
    is sorted by the canonical representatives of the pair.

    The partners of s1 are the coset s1 * T of the distinct special
    squares T, so the cost is ``class_group`` (once per stratum) plus
    h * |T| compositions, h the length of the class list.  No composition
    table is built and nothing is read from or written to disk.
    """
    _require_one_mod_4(D)
    classes = list(class_group(D).elements)
    if include_nonprimitive:
        m = 3
        while m * m <= abs(D):
            if D % (m * m) == 0 and (D // (m * m)) % 4 == 1:
                for s in class_group(D // (m * m)).elements:
                    a, b, c = s.coeffs()
                    classes.append(form_class(m * a, m * b, m * c))
            m += 2
        classes.sort(key=lambda s: s.coeffs())
    squares = {special_square(a, c) for a, c in _special_witnesses(D)}
    index = {s: i for i, s in enumerate(classes)}
    out = []
    for i, s1 in enumerate(classes):
        for s2 in {class_compose(t2, s1) for t2 in squares}:
            if index.get(s2, -1) >= i:
                out.append({
                    "s1": list(s1.coeffs()),
                    "s2": list(s2.coeffs()),
                    "b4_distinguishable": b4_distinguishable(s1, s2),
                })
    out.sort(key=lambda d: (d["s1"], d["s2"]))
    return out


def feher_klein_pair(p: int, q: int, k: int, n: int) -> tuple[KleinPair, Form, Form]:
    """The Klein pair of the two-parameter family of disjoint surface pairs.

    For coprime p, q > 1, n >= 1 and any k, the plane of the pair

        a1 = [[-1+2kp, 2q], [-2np, 1-2kp]],
        a2 = [[1, 2p], [2(k^2 p - k - n q), -1]]

    is symplectic and realizes [q_L] = [pq, 1-2kp, n] and
    [q_Lpperp] = [pq, 2kp-1-2qr, rs-2kr+n], where ps - qr = 1.  Both
    identities are checked against the plane computation before returning.
    """
    if p <= 1 or q <= 1:
        raise OutOfRange("p and q must both exceed 1")
    if n < 1:
        raise OutOfRange("n must be at least 1")
    g, s, negr = _ext_gcd(p, q)
    if g != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {g}")
    r = -negr  # p*s - q*r = 1
    if p * s - q * r != 1:
        raise AssertionError(f"p*s - q*r = {p * s - q * r}, expected 1")
    a1 = Mat2(-1 + 2 * k * p, 2 * q, -2 * n * p, 1 - 2 * k * p)
    a2 = Mat2(1, 2 * p, 2 * (k * k * p - k - n * q), -1)
    pair = KleinPair(a1, a2)
    target_l = Form(p * q, 1 - 2 * k * p, n)
    target_pp = Form(p * q, 2 * k * p - 1 - 2 * q * r, r * s - 2 * k * r + n)
    plane = klein_inverse(pair)
    if not is_symplectic(plane):
        raise AssertionError(f"the plane of {pair} is not symplectic")
    if FormClass.of(q_of_plane(plane)) != FormClass.of(target_l):
        raise AssertionError(f"[q_L] differs from the target {target_l}")
    if FormClass.of(q_of_plane(symplectic_complement(plane))) != FormClass.of(target_pp):
        raise AssertionError(f"[q_Lperp] differs from the target {target_pp}")
    return pair, target_l, target_pp
