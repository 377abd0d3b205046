"""Realization and non-isotopy criteria for pairs of Seifert forms.

Everything here is exact arithmetic on classes of discriminant
D = 1 mod 4 (the knot-determinant convention).  A pair of classes
(s1, s2) is *realizable by a disjoint genus-one pair* iff some special
class t = [a x^2 + x y + c y^2] with 1 - 4ac = D satisfies
t^2 * s1 = s2, where (a, c) runs over the divisor pairs of (1 - D)/4.
So the partners of s1 form the coset s1 * T, T the set of special
squares t^2.  T holds the identity (witness (1, m)) and is closed under
inversion ((a, c) and (c, a) give inverse squares), so the pairs are
enumerated by composing the classes with T', T without the identity and
with one of each inverse pair, not by testing pair by pair.  For D < 0
only the h/2 positive classes are composed, and the pairs of negative
classes are their negatives.  The pair {s, t s} has the bar
{u, t u}, u = bar(t s), so each t composes one class of each such
orbit, about half of the classes composed.
The witness list and T' come from ``compose`` (``_special_witnesses``,
``_half_special_squares``).  The three existence queries share one
search, ``_first_witness``, which returns the first witness (a, c) in
``divisor_pairs`` order (|a| ascending) with a > 0: the witness (-a, -c)
has the square of (a, c) and comes right after it.  For D < 0 and square
D it reduces each witness's square in turn.  For positive non-square D
it reduces each witness's form (t^2, t^4 = t^2 t^2 or t^2 s1) with no
cycle walk and walks one cycle, the principal cycle or that of s2, once:
two reduced forms are equivalent iff they lie on one cycle.

A realizable pair is *B^4-distinguishable* iff s1 is neither s2 nor
bar(s2): the double branched covers of the pushed-in surfaces then have
non-isometric intersection forms.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING, Callable

from .compose import (
    identity_class,
    phi_n,
    _check_discriminant,
    _class_triples,
    _compose,
    _compose_reduced,
    _half_special_squares,
    _identity,
    _require_one_mod_4,
    _special_square,
    _special_witnesses,
    _TABLE_MAX,
)
from .errors import MismatchedDiscriminant, NotCoprime, NotNegative, NotOddPositive, OutOfRange, TooLarge
from .forms import Form, FormClass, Mat2, _canonical_bar, _reduce_indefinite, _walk

if TYPE_CHECKING:  # lattice is imported where it is used, not at start-up
    from .lattice import KleinPair

Witness = tuple[int, int]


def _first_witness(D: int, keep: Callable[[tuple[int, int, int]], bool],
                   product: Callable[[tuple[int, int, int]], tuple[int, int, int]],
                   target: tuple[int, int, int] | None) -> tuple[bool, Witness | None]:
    """The first special witness (a, c) whose square t passes, as
    (True, (a, c)), or (False, None) when none does.

    For D < 0 and square D the witnesses are tried in turn: t passes when
    keep(t) holds for its canonical triple t.  For positive non-square D,
    keep must mean that the form product(t) lies in the class of target, or,
    with target None, that it is not principal.  Two reduced forms are
    equivalent iff they lie on one cycle (Buchmann-Vollmer, Binary
    Quadratic Forms, ch. 6), so each witness's product of
    (a^2, 1 - 2ac, c^2) is reduced, with no cycle walk, and the cycle of
    target (or the principal cycle) is walked once, striking off the forms
    it meets: W witnesses cost W compositions and reductions and one walk.
    """
    witnesses = _special_witnesses(D)
    sq = isqrt(D) if D > 0 else 0
    if D < 0 or sq * sq == D:
        for a, c in witnesses:
            if keep(_special_square(a, c, D)):
                return True, (a, c)
        return False, None
    forms = [_reduce_indefinite(*product((a * a, 1 - 2 * a * c, c * c)), D, sq) for a, c in witnesses]
    principal = target is None
    if principal:  # a reduced translate of the principal form
        b = sq - (sq - D) % 2
        target = (1, b, (b * b - D) // 4)
    off = set(forms)
    _walk(*target, D, sq, stop=off)  # leaves the forms off the cycle of target
    for w, f in zip(witnesses, forms):
        if (f in off) == principal:
            return True, w
    return False, None


def realizable_disjoint_pair(s1: FormClass, s2: FormClass) -> tuple[bool, Witness | None]:
    """Does some special square carry s1 to s2?  Returns the first witness."""
    if s1.disc != s2.disc:
        raise MismatchedDiscriminant(f"{s1.disc} != {s2.disc}")
    D = s1.disc
    t1, t2 = s1.coeffs(), s2.coeffs()
    return _first_witness(D, lambda t: _compose_reduced(t, t1, D) == t2,
                          lambda t: _compose(*t, *t1, D), t2)


def nonisotopic_exists(D: int) -> tuple[bool, Witness | None]:
    """Is some special square non-trivial (equivalently, S+_D non-trivial)?"""
    _check_discriminant(D)  # not-a-discriminant before not-one-mod-4
    sq = isqrt(D) if D > 0 else 0
    # the identity is compared only for D < 0 and square D, where it costs
    # one reduction; for positive non-square D the walk finds principal forms
    e = _identity(D) if D < 0 or sq * sq == D else None
    return _first_witness(D, lambda t: t != e, lambda t: t, None)


def prescribed_form_exists(D: int) -> tuple[bool, Witness | None]:
    """Does some special class have non-trivial fourth power?

    When it does, one of the two disjoint surfaces can be prescribed an
    arbitrary Seifert form of discriminant D.  For D < 0 and square D the
    square t^2 is primitive, so t^4 != 1 exactly when t^2 != bar(t^2): one
    reduction for t^2 and a closed-form bar for D < 0, no composition.
    For positive non-square D each t^4 = t^2 t^2 is composed and reduced,
    and the principal cycle is walked once to find which t^4 lie on it.
    """
    _check_discriminant(D)  # not-a-discriminant before not-one-mod-4
    return _first_witness(D, lambda t: _canonical_bar(*t, D) != t,
                          lambda t: _compose(*t, *t, D), None)


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
    m = (1 - D) // 4  # >= 1, as D <= -3
    if m == 1 or _is_prime(m):
        return False
    r = isqrt(m)
    return not (r * r == m and _is_prime(r))


def squaredisc_criterion(N: int) -> bool:
    """For odd N > 0: a knot with determinant N^2 and a non-isotopic pair
    of Seifert surfaces exists iff N > 3."""
    if N <= 0 or N % 2 == 0:
        raise NotOddPositive(f"N must be odd and positive, got {N}")
    result = N > 3
    # cross-check through the explicit isomorphism: [Q_{N,2}]^2 = phi(4)
    if result != (phi_n(N, 4) != identity_class(N * N)):
        raise AssertionError(f"phi_N cross-check disagrees with the criterion for N = {N}")
    return result


def b4_distinguishable(s1: FormClass, s2: FormClass) -> bool:
    """s1 not in {s2, bar(s2)}: pushed-in surfaces are non-isotopic in B^4."""
    if s1.disc != s2.disc:
        raise MismatchedDiscriminant(f"{s1.disc} != {s2.disc}")
    t1, t2 = s1.coeffs(), s2.coeffs()
    return t1 != t2 and t1 != _canonical_bar(*t2, s1.disc)


def enumerate_realizable_pairs(D: int, include_nonprimitive: bool = False) -> list[dict]:
    """All unordered realizable pairs {s1, s2} over classes of disc D.

    Primitive classes by default; with ``include_nonprimitive`` the
    classes m * (class of disc D/m^2) for m >= 2 join the list.  Output
    is sorted by the canonical representatives of the pair.

    The partners of s1 are the coset s1 * T of the special squares T.
    T holds the identity and is closed under inversion, and s2 = t^-1 * s1
    exactly when s1 = t * s2, so the pairs are the diagonal and
    {s1, t * s1} for t in T' (T without the identity, one of each inverse
    pair).  For D < 0 ``_class_triples`` lists the positive classes only,
    and only they are composed: with N the class of the negative principal
    form, [-u] = N [bar u], so t * (-u) = -(bar t * u), and T is closed
    under bar; the pairs of negative classes are the negatives {-u, -v} of
    the positive pairs {u, v}, with the same flag.  The bar is an
    automorphism and t bar(t) = 1 (t is primitive), so the bar of the pair
    {s, t * s}, which has the same flag, is the pair {u, t * u} with
    u = bar(t * s), and s -> u is an involution of the classes composed.
    Each t composes one class of each of its orbits, (k + f_t)/2
    compositions for the k classes composed (half the classes for D < 0),
    f_t of them fixed, and the bar of each class is read once (one cycle
    walk for D > 0).  The cost is the class enumeration (once per stratum)
    plus those compositions; TooLarge is raised before the first
    composition when k * |T'| exceeds _TABLE_MAX.  No composition table
    and no FormClass is built.
    """
    _check_discriminant(D)  # not-a-discriminant before not-one-mod-4
    _require_one_mod_4(D)
    classes, _ = _class_triples(D)
    if include_nonprimitive:
        m = 3
        while m * m <= abs(D):
            if D % (m * m) == 0:  # D / m^2 = 1 mod 4, as m^2 = 1 mod 8
                # m times a canonical triple is canonical
                classes += [(m * a, m * b, m * c) for a, b, c in _class_triples(D // (m * m))[0]]
            m += 2
    squares = _half_special_squares(D)
    steps = len(classes) * len(squares)
    if steps > _TABLE_MAX:
        raise TooLarge(f"realizable pairs are enumerated only up to {_TABLE_MAX} compositions, "
                       f"D = {D} with {len(classes)} classes and {len(squares)} squares needs {steps}")
    pairs = {(*t1, *t1, False) for t1 in classes}
    if squares:
        bar = {t1: _canonical_bar(*t1, D) for t1 in classes}
        for t in squares:
            met = set()  # the classes u whose pair {u, t u} is made
            for t1 in classes:
                if t1 in met:
                    continue
                t2 = _compose_reduced(t, t1, D)
                u1, u2 = bar[t1], bar[t2]  # a KeyError here is a wrong composite
                met.add(u2)
                flag = t1 != t2 and t1 != u2
                pairs.add((*t1, *t2, flag) if t1 < t2 else (*t2, *t1, flag))
                pairs.add((*u1, *u2, flag) if u1 < u2 else (*u2, *u1, flag))
    out = list(pairs)
    if D < 0:  # negation reverses the order of triples
        out += [(-a2, -b2, -c2, -a1, -b1, -c1, flag) for a1, b1, c1, a2, b2, c2, flag in out]
    out.sort()
    return [{"s1": [a1, b1, c1], "s2": [a2, b2, c2], "b4_distinguishable": flag}
            for a1, b1, c1, a2, b2, c2, flag in out]


def feher_klein_pair(p: int, q: int, k: int, n: int) -> tuple[KleinPair, Form, Form]:
    """The Klein pair of the two-parameter family of disjoint surface pairs.

    For coprime p, q > 1, n >= 1 and any k, the plane of the pair

        a1 = [[-1+2kp, 2q], [-2np, 1-2kp]],
        a2 = [[1, 2p], [2(k^2 p - k - n q), -1]]

    is symplectic and realizes [q_L] = [pq, 1-2kp, n] and
    [q_Lpperp] = [pq, 2kp-1-2qr, rs-2kr+n], where ps - qr = 1.  Both
    identities are checked against the plane computation before returning.
    """
    from .lattice import KleinPair, is_symplectic, klein_inverse, q_of_plane, symplectic_complement

    if p <= 1 or q <= 1:
        raise OutOfRange("p and q must both exceed 1")
    if n < 1:
        raise OutOfRange("n must be at least 1")
    g = gcd(p, q)
    if g != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {g}")
    s = pow(p, -1, q)  # then moved into (-q/2, q/2], the s of least absolute value
    if 2 * s > q:
        s -= q
    r = (p * s - 1) // q  # p*s - q*r = 1
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
