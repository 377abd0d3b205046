"""Gauss composition and oriented class groups.

Composition of classes [q1] * [q2] is defined whenever the contents m1, m2
are coprime; the result has content m1 * m2.  ``_compose`` is the one
composition function, and it is the paper's recipe.  For q_i = (a_i, b_i,
c_i) of discriminant D, the plane of the Klein pair (A(q1), -A(S.q2)) has
the Plucker coordinates

    (P01, P02, P03, P12, P13, P23) = ((b1 + b2)/2, a2, -a1, -c1, c2, (b2 - b1)/2),

which are primitive exactly when m1 and m2 are coprime.  An oriented basis
(h1, h2) of that plane is the first slicing pair of a cube whose second
and third slicing forms are q2 and q1 (``cube.cube_from_forms``), so by the
cube law (Bhargava, Higher composition laws I, 2004) the bar of its first
slicing form, -q_L = -(det h1, tr(h1 bar h2), det h2), lies in [q1] * [q2].
That holds for both signs of D, for square D and for non-primitive forms,
so no input needs a step of its own.  The composite is -q_L S-swapped,
so that its last coefficient a = -det h2 leads: a1 a2 / d^2 with
d = gcd((b1 + b2)/2, a1, a2) when d is not zero, else
c1 c2 / gcd(c1, c2)^2, or 0 when c1 = c2 = 0 too.  When a is not zero,
b is translated into (-a, a], or [a, -a) for a < 0 (the window definite
reduction moves it to), and c is read off D; only a = 0, which needs a
square D, leaves -q_L just S-swapped.

``_plane_basis`` reads (h1, h2) off P in closed form, with one Bezout
vector and at most two modular inverses; it is the kernel that
``lattice._hermite``, and through it ``cube.cube_from_forms``, share with
composition.  Row s of the antisymmetric matrix of P is x_s y - y_s x, a
vector of the plane.  In the Hermite basis (h1, h2) oriented like P, with
h1's pivot in column j (the first row of P that is not zero), row j is
h1_j h2: with d the gcd of its entries, h2 = u = row j / d, sign included,
and h1_j = d.  Row s carries h1 with coefficient -u_s, so for any Bezout
vector l of u (sum l_s u_s = 1) h1_k = -sum_{s>j} l_s P_sk for k > j, up to
a multiple of h2.  Each pivot column is its own straight-line case, and no
row is built.  ``_plane_basis`` leaves h1 unreduced, as q_L is the same
form up to a translation for every such h1; ``lattice._hermite`` reduces
it at h2's pivot.  ``dirichlet_compose`` returns the composite as a form;
``class_compose`` reduces it in the regime D names and builds its class
once.  ``concordant_pair`` still gives Dirichlet's concordant
representatives (Cox, Primes of the form x^2 + ny^2, Lemma 2.25, in closed
form), but no composition goes through it.

Class groups are enumerated per discriminant regime by ``_class_triples``,
with one contract for all of them: it returns the sorted canonical
triples that the algorithms compose, for D < 0 the positive classes only,
and the identity, the triple its enumeration lists first.  Both
non-square regimes list forms from ``_roots_mod_4a``: for each a up to a
bound, a = 1 first, the square roots z mod 2a of D mod 4a, built from a
least-prime-factor sieve by Tonelli-Shanks, Hensel lifting and CRT
(Cohen, section 1.5), in O(sqrt|D|) root steps.  Each root gives one b.
For D < 0, a <= sqrt(|D|/3) and b is z moved into (-a, a]; the forms
with c >= a (and b >= 0 when a = c) are reduced already, so they are
the classes, (1, D mod 2, .) first; ``class_group`` adds their negatives
at the API edge.  For D = N^2 the residues a mod N coprime to N give the
canonical triples (a, N, 0) of [a x^2 + N x y]: (1, N, 0) first, or
(0, 1, 0) for N = 1.  For positive non-square D, every cycle holds a
reduced form (+-a, b, +-c) with 5a^2 <= D (Markov's bound, see
``_markov_forms``).  sigma(a, b, c) = (-a, b, -c) carries each reduced
cycle onto a reduced cycle, so only the forms with a > 0 are listed,
with b moved into the reduced window, a translate of the principal form
first: each cycle or its sigma image holds one of them.
``forms._walk_pair`` walks the cycle of each listed form whose sigma
orbit no earlier walk has met, once: it strikes the listed forms on that
cycle and on its image off one set and returns the least forms of both,
the class representatives, so R reduced forms cost O(R) steps.  As
[sigma f] = N [f], N the class of the negative principal form, either
N = 1 and every cycle is its own image, or no cycle is and the walks
are half as many.  ``class_group`` raises TooLarge before an
enumeration longer than ``_CLASS_GROUP_SCAN_MAX`` steps.

The loops that compose classes pairwise (``OrientedClassGroup.table``,
``element_order``, ``s_plus_subgroup`` and the coset step of
``seifert.enumerate_realizable_pairs``) keep each class as its triple
and call ``_compose_reduced`` (``_compose``, then ``forms._canonical``),
the helper ``class_compose`` wraps; only a returned ``FormClass`` is
built, by ``forms._canonical_class``.  The bar is an automorphism,
bar(x) bar(y) = bar(x y), so ``table`` and the coset step read the bar of
each class once and compose one pair of each bar orbit: ``table`` one of
each unordered pair {x, y} and {bar x, bar y}, and for D < 0 only the
pairs of positive classes, the negative half of the table following from
the bar and the negation of the indices.  Both raise TooLarge past
``_TABLE_MAX`` compositions, weighed as if no pair were skipped.
``_special_witnesses`` is the one list of special witnesses: the divisor
pairs (a, c) of (1 - D)/4 with a > 0, which the ``seifert`` queries
search in order.  ``_half_special_squares`` squares those with
a^2 <= |ac| into T'.  ``_classes`` sorts those special forms and squares
into classes, for positive non-square D with one walk per cycle they meet.
``s_plus_subgroup`` and the coset step compose with T' only: no identity
and one of each inverse pair.  ``_closure`` closes {1} under T' for
``s_plus_subgroup`` and {t} under t for ``element_order``, each within a
budget.  Every function here is pure: nothing reads or writes files.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import (
    NotADiscriminant,
    NotCoprimeContent,
    NotCoprimeResidue,
    NotOddPositive,
    NotOneMod4,
    TooLarge,
)
from .forms import (
    Form,
    FormClass,
    _canonical_class,
    _common_disc,
    content,
    discriminant,
    square_residue,
    _canonical,
    _canonical_bar,
    _reduce_indefinite,
    _walk,
    _walk_pair,
)


# ---------------------------------------------------------------------------
# Composition


def _with_leading(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """A form equivalent to (a, b, c) whose leading coefficient is nonzero
    and coprime to n >= 1; requires gcd(n, a, b, c) = 1.

    Closed form (Cox, Primes of the form x^2 + ny^2, Lemma 2.25): y is the
    largest divisor of n coprime to a, x the largest divisor of n / y
    coprime to c.  Every prime p | n then divides exactly one of x, y, or
    neither when p divides a and c (and so not b), so p does not divide
    f(x, y) = a x^2 + b x y + c y^2.  With x u + y v = 1 the substitution
    ((x, -v), (y, u)) has determinant 1 and gives (f(x, y), ., f(-v, u)).
    """
    if a != 0 and gcd(a, n) == 1:
        return a, b, c
    if c != 0 and gcd(c, n) == 1:
        return c, -b, a  # the S-swap (x, y) -> (-y, x)
    if n == 1:  # a = c = 0: f(x, x + y) = b x^2 + b x y
        return b, b, 0
    y = _coprime_part(n, a)
    x = _coprime_part(n // y, c)
    u = pow(x, -1, y)
    v = (1 - x * u) // y
    return (a * x * x + b * x * y + c * y * y,
            b * (x * u - y * v) + 2 * (c * y * u - a * x * v),
            a * v * v - b * v * u + c * u * u)


def _coprime_part(n: int, a: int) -> int:
    # the largest divisor of n >= 1 coprime to a: gcd(n, a^k) is the part of n
    # that a shares once k = n.bit_length() >= every exponent in n
    return n // gcd(n, pow(a, n.bit_length(), n))


def concordant_pair(f1: Form, f2: Form) -> tuple[Form, Form]:
    """Concordant representatives of [f1], [f2] (coprime contents).

    The returned forms share their middle coefficient and have coprime
    nonzero leading coefficients; each leading coefficient divides the
    other form's last coefficient.  Composition does not need them: it
    reads the composite off the recipe's cube (``_compose``), which gives
    a1 a2 / d^2 as the leading coefficient for any two forms.  They are
    the textbook witnesses of Dirichlet's formula.
    """
    D = _common_disc(discriminant(f1), discriminant(f2))
    m1, m2 = content(f1), content(f2)
    if gcd(m1, m2) != 1:
        raise NotCoprimeContent(f"contents {m1}, {m2} are not coprime")
    if f1.a != 0 and f2.a != 0 and f1.b == f2.b and gcd(f1.a, f2.a) == 1:
        return f1, f2  # already concordant
    a1, b1, _ = _with_leading(f1.a, f1.b, f1.c, m2)
    a2, b2, _ = _with_leading(f2.a, f2.b, f2.c, abs(a1))
    # common middle coefficient: b = b1 mod 2a1 and b = b2 mod 2a2; the
    # parities of b1 and b2 agree (both match D), so CRT applies with
    # gcd(2a1, 2a2) = 2 and u = a1^-1 mod a2
    u = pow(a1, -1, abs(a2))
    diff = b2 - b1
    if diff % 2:
        raise AssertionError(f"middle coefficients {b1}, {b2} differ in parity")
    b = b1 + 2 * a1 * u * (diff // 2)
    # b == b_i mod 2 a_i, so each translated form is (a_i, b, (b^2 - D) / (4 a_i))
    h1 = Form(a1, b, (b * b - D) // (4 * a1))
    h2 = Form(a2, b, (b * b - D) // (4 * a2))
    if h2.c % h1.a or h1.c % h2.a:
        raise AssertionError(f"{h1}, {h2} are not concordant")
    return h1, h2


def _plane_basis(p01: int, p02: int, p03: int, p12: int, p13: int,
                 p23: int) -> tuple[int, int, int, int, int, int, int]:
    """The coordinates (x0, x1, x2, x3) of h1 and (y1, y2, y3) of h2 = (0,
    y1, y2, y3) for an oriented basis (h1, h2) of the plane of P: h2 is the
    second Hermite basis vector, h1 the first up to a multiple of h2 (see
    the module docstring).  P must not be zero; the vectors span its plane
    when P is primitive and satisfies the Plucker relation."""
    if p01 or p02 or p03:
        # pivot column 0: h2 = (0, u1, u2, u3) = row 0 over d, h1_0 = d, and
        # h1_k = -sum_s l_s P_sk for a Bezout vector l of u
        g = gcd(p01, p02)
        d = gcd(g, p03)
        u1, u2, u3, g = p01 // d, p02 // d, p03 // d, g // d
        # l1 u1 + l2 u2 = g = gcd(u1, u2); then s g + l3 u3 = 1 makes
        # (s l1, s l2, l3) a Bezout vector of u
        if u2:
            l1 = pow(u1 // g, -1, abs(u2 // g))  # 0 when u2 | u1
            l2 = (g - l1 * u1) // u2
        else:
            l1, l2 = u1 // g if g else 0, 0
        l3 = 0
        if g != 1:
            s = pow(g, -1, abs(u3))  # u3 != 0, as gcd(g, u3) = 1
            l1, l2, l3 = s * l1, s * l2, (1 - s * g) // u3
        return d, l2 * p12 + l3 * p13, l3 * p23 - l1 * p12, -l1 * p13 - l2 * p23, u1, u2, u3
    if p12 or p13:
        # pivot column 1: h2 = (0, 0, u2, u3), h1 = (0, d, l3 P23, -l2 P23)
        d = gcd(p12, p13)
        u2, u3 = p12 // d, p13 // d
        if u3:
            l2 = pow(u2, -1, abs(u3))
            l3 = (1 - l2 * u2) // u3
        else:
            l2, l3 = u2, 0
        return 0, d, l3 * p23, -l2 * p23, 0, u2, u3
    # pivot column 2: the plane of the last two coordinates
    d = abs(p23)
    return 0, 0, d, 0, 0, 0, p23 // d


def _compose(a1: int, b1: int, c1: int, a2: int, b2: int, c2: int, D: int) -> tuple[int, int, int]:
    """The unreduced composite of (a1, b1, c1) and (a2, b2, c2), both of
    discriminant D, with coprime contents m1, m2 (else NotCoprimeContent).

    The paper's recipe: the bar of the first slicing form of the cube of
    the two forms, S-swapped so that a = -det h2 leads, with b translated
    into (-a, a], or [a, -a) for a < 0, and c read off D when a is not
    zero (see the module docstring).
    """
    s, n = (b1 + b2) // 2, (b2 - b1) // 2
    x0, x1, x2, x3, y1, y2, y3 = _plane_basis(s, a2, -a1, -c1, c2, n)
    # x0 = gcd(s, a1, a2), or 0 when all three vanish, so gcd(x0, c1, c2, n)
    # is the gcd of P, which is 1 iff the contents are coprime
    if x0 != 1 and gcd(x0, c1, c2, n) != 1:
        raise NotCoprimeContent(f"contents {gcd(a1, b1, c1)}, {gcd(a2, b2, c2)} are not coprime")
    # -q_L = (-(x0 x1 + x2 x3), -b, -y2 y3) with b = x0 y1 + x2 y3 + x3 y2,
    # and x0 y1 = s
    a, b = -y2 * y3, s + x2 * y3 + x3 * y2
    if a:
        b = a - (a - b) % (2 * a)
        c, r = divmod(b * b - D, 4 * a)
    else:  # D = b^2 is a square
        c, r = -(x0 * x1 + x2 * x3), b * b - D
    if r:  # a wrong triple would not fail, it could hang the reduction
        raise AssertionError(f"composite ({a}, {b}) does not have discriminant {D}")
    return a, b, c


def dirichlet_compose(f1: Form, f2: Form) -> Form:
    """A form in the class [f1] * [f2] (contents must be coprime): the
    paper's recipe, the bar of the first slicing form of the cube of f1 and
    f2, S-swapped and translated as ``_compose`` returns it.  Only its
    class and content are fixed; the representative is the one the recipe
    gives."""
    D = _common_disc(discriminant(f1), discriminant(f2))
    return Form(*_compose(f1.a, f1.b, f1.c, f2.a, f2.b, f2.c, D))


def _compose_reduced(t1: tuple[int, int, int], t2: tuple[int, int, int], D: int) -> tuple[int, int, int]:
    # the canonical coefficients of the class of t1 * t2, both of discriminant D
    return _canonical(*_compose(*t1, *t2, D), D)


def class_compose(s1: FormClass, s2: FormClass) -> FormClass:
    """Composition on classes; defined for coprime contents."""
    D = _common_disc(s1.disc, s2.disc)
    return _canonical_class(Form(*_compose_reduced(s1.coeffs(), s2.coeffs(), D)), D)


def class_bar(s: FormClass) -> FormClass:
    """[q] -> [bar(q)], defined for every class; closed form for D < 0."""
    return _canonical_class(Form(*_canonical_bar(*s.coeffs(), s.disc)), s.disc)


def identity_class(D: int) -> FormClass:
    """The neutral class of discriminant D."""
    return _canonical_class(Form(*_identity(D)), D)


def _identity(D: int) -> tuple[int, int, int]:
    # the canonical coefficients of the neutral class of discriminant D
    _check_discriminant(D)
    b = D % 2
    return _canonical(1, b, (b - D) // 4, D)


def _check_discriminant(D: int) -> None:
    if D == 0 or D % 4 not in (0, 1):
        raise NotADiscriminant(f"{D} is not a nonzero discriminant")


# ---------------------------------------------------------------------------
# Class group enumeration


@dataclass(frozen=True, init=False)
class OrientedClassGroup:
    """The sorted primitive classes of one discriminant; only ``class_group`` builds one."""

    disc: int
    elements: list[FormClass]
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def table(self) -> list[list[int]]:
        """The composition table as an index matrix.

        The group is abelian, so each unordered pair is composed once,
        and the bar is an automorphism, so the entry at (bar x, bar y) is
        bar(x y): one of the pairs {x, y} and {bar x, bar y} is composed,
        about half of the h(h+1)/2 unordered pairs for h classes.  For
        D < 0 only the k = h/2 positive classes are composed, about half
        of k(k+1)/2, an eighth of the pairs: with N the class of the
        negative principal form, [-x] = N [bar x] and N^2 = 1, so
        (-x) y = -(x bar y), x (-y) = -(bar x y) and (-x)(-y) = bar x bar y.
        TooLarge is raised before anything is allocated when h(h+1)/2
        exceeds _TABLE_MAX, for either sign of D.
        """
        D = self.disc
        h = len(self.elements)
        if h * (h + 1) // 2 > _TABLE_MAX:
            raise TooLarge(f"composition tables are built only up to {_TABLE_MAX} compositions, "
                           f"D = {D} with {h} classes needs {h * (h + 1) // 2}")
        triples = [s.coeffs() for s in self.elements]
        idx = {t: i for i, t in enumerate(triples)}
        bar = [idx[_canonical_bar(*t, D)] for t in triples]
        table = [[-1] * h for _ in range(h)]
        # sorted, the negative classes come first: triples[h-1-i] = -triples[i]
        k = h // 2 if D < 0 else 0
        for i in range(k, h):
            x, row, bi = triples[i], table[i], bar[i]
            bar_row = table[bi]
            for j in range(i, h):
                if row[j] < 0:  # not yet set as the bar of a composed entry
                    e = idx[_compose_reduced(x, triples[j], D)]
                    row[j] = table[j][i] = e
                    bj = bar[j]
                    bar_row[bj] = table[bj][bi] = bar[e]
        if D < 0:
            n = h - 1
            for i in range(k, h):
                row, neg_row, bar_row = table[i], table[n - i], table[bar[i]]
                for j in range(k, h):
                    neg_row[j] = n - row[bar[j]]
                    row[n - j] = n - bar_row[j]
                    neg_row[n - j] = bar_row[bar[j]]
        return table

    def element_order(self, s: FormClass) -> int:
        """The size of the closure of {s} under s; TooLarge past the group order."""
        t = s.coeffs()
        return len(_closure({t}, [t], _common_disc(self.disc, s.disc), len(self.elements)))

    def to_dict(self) -> dict:
        return {
            "disc": self.disc,
            "elements": [list(s.coeffs()) for s in self.elements],
            "identity": self.identity_index,
            "table": self.table(),
        }


def _sqrt_mod_prime(n: int, p: int) -> int:
    # a square root of the quadratic residue n mod the odd prime p (Tonelli-Shanks)
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    s, q = 0, p - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        e = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, e * e % p, t * e * e % p, r * e % p
    return r


def _roots_mod_4a(D: int, top: int) -> list[tuple[int, int]]:
    """Every (a, z) with 1 <= a <= top, 0 <= z < 2a and z^2 = D (mod 4a).

    Write a = t m with t a power of 2 and m odd.  The x mod 2t with
    x^2 = D (mod 4t) are lifted from t to 2t: each is some such x or
    x + 2t, as (x + 2t)^2 = x^2 (mod 4t).  The roots of D mod odd m are
    taken in increasing m from those of smaller moduli, with p the least
    prime factor of m (from a sieve):
      - m = p: 0 when p | D, otherwise +-r from Tonelli-Shanks when D is
        a square mod p, and none when it is not;
      - m = p^j: Hensel's step lifts each root r mod m/p when p does not
        divide r; when it does, (r + t m/p)^2 = r^2 (mod m) for every t,
        so all p lifts are roots or none is;
      - any other m = q n, q = p^j and n > 1 prime to p: the CRT of the
        roots mod q and mod n, none when either has none.
    Each z is then the CRT of a root x mod 2t and a root y mod m; for odd
    a (t = 1) that is y or y + m, whichever has the parity of D.
    """
    spf = list(range(top + 1))
    for p in range(3, isqrt(top) + 1, 2):
        if spf[p] == p:
            for m in range(p * p, top + 1, 2 * p):
                if spf[m] == m:
                    spf[m] = p
    roots = {1: [0]}  # roots[m]: the x mod m with x^2 = D (mod m), m odd
    for m in range(3, top + 1, 2):
        p = spf[m]
        q, n = p, m // p
        while n % p == 0:
            q, n = q * p, n // p
        if m == p:
            if D % p == 0:
                rs = [0]
            elif pow(D, (p - 1) // 2, p) == 1:
                r = _sqrt_mod_prime(D % p, p)
                rs = [r, p - r]
            else:
                rs = []
        elif n == 1:
            s, rs = m // p, []
            for r in roots[s]:
                if r % p:
                    rs.append((r - (r * r - D) * pow(2 * r, -1, m)) % m)
                elif (r * r - D) % m == 0:
                    rs.extend(range(r, m, s))
        elif roots[q] and roots[n]:
            u = pow(q, -1, n)
            rs = [x + q * ((y - x) * u % n) for x in roots[q] for y in roots[n]]
        else:
            rs = []
        roots[m] = rs
    out = [(m, y + m * ((y - D) % 2)) for m in range(1, top + 1, 2) for y in roots[m]]
    # the x mod 2t with x^2 = D (mod 4t), from t = 2 on
    xs, t = [x for x in (D % 2, D % 2 + 2) if (x * x - D) % 8 == 0], 2
    while t <= top and xs:
        out += [(t * m, x + 2 * t * ((y - x) * u % m))
                for m in range(1, top // t + 1, 2) if roots[m]
                for u in [pow(2 * t, -1, m)] for x in xs for y in roots[m]]
        xs = [x for r in xs for x in (r, r + 2 * t) if (x * x - D) % (8 * t) == 0]
        t *= 2
    return out


def _reduced_definite(D: int) -> list[tuple[int, int, int]]:
    # the positive definite Gauss-reduced primitive forms of discriminant
    # D < 0: |b| <= a <= c, so 3a^2 <= |D|, and b >= 0 when |b| = a or
    # a = c; each root z mod 2a of D mod 4a gives the one b = z (mod 2a)
    # in (-a, a]
    out = []
    for a, z in _roots_mod_4a(D, isqrt(-D // 3)):
        b = z - 2 * a if z > a else z
        c = (b * b - D) // (4 * a)
        if c >= a and (b >= 0 or a < c) and gcd(a, b, c) == 1:
            out.append((a, b, c))
    return out


def _markov_forms(D: int, sq: int) -> list[tuple[int, int, int]]:
    """The reduced primitive forms (a, b, c) of D > 0 non-square with
    a > 0 and 5a^2 <= D, from the square roots of D mod 4a.

    Since 2a < sqrt(D), each root z mod 2a gives exactly one reduced form:
    b is z moved into the window (sq - 2a, sq], and c = (b^2 - D) / 4a.
    Every cycle holds one of these forms or the sigma image (-a, b, -c) of
    one: by Markov's theorem each form takes a primitive value v with
    |v| <= sqrt(D/5) < sqrt(D)/2, and a form (v, b, c) moved into the
    window sqrt(D) - 2|v| < b < sqrt(D) is reduced.  The first,
    (1, b, (b^2 - D)/4) with b = sq or sq - 1 of D's parity, is a
    translate of the principal form.
    """
    out = []
    for a, z in _roots_mod_4a(D, isqrt(D // 5)):
        b = sq - (sq - z) % (2 * a)
        c = (b * b - D) // (4 * a)
        if gcd(a, b, c) == 1:
            out.append((a, b, c))
    return out


def _classes(forms: list[tuple[int, int, int]], D: int) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """The canonical triple of each class the forms of discriminant D meet,
    mapped to the first form in it, in order of first appearance.

    For positive non-square D the forms are reduced with no walk, and each
    cycle they meet is walked once, striking them off one set; the zero
    form lies on no cycle, so every walk returns its least form.
    """
    sq = isqrt(D) if D > 0 else 0
    if D < 0 or sq * sq == D:
        first = {}
        for f in forms:
            first.setdefault(_canonical(*f, D), f)
        return first
    reduced = [_reduce_indefinite(*f, D, sq) for f in forms]
    pending = {(0, 0, 0), *reduced}
    return {_walk(*r, D, sq, stop=pending): f for f, r in zip(forms, reduced) if r in pending}


def _class_triples(D: int) -> tuple[list[tuple[int, int, int]], tuple[int, int, int]]:
    # the class list of D and its identity (see the module docstring); the
    # budget of class_group is checked here, before any enumeration
    _check_discriminant(D)
    N = isqrt(D) if D > 0 else 0
    square = D > 0 and N * N == D
    scan = 150 * N if square else -D // 12 if D < 0 else D // 8
    if scan > _CLASS_GROUP_SCAN_MAX:
        raise TooLarge(f"class groups are enumerated only up to {_CLASS_GROUP_SCAN_MAX} "
                       f"steps, D = {D} needs about {scan}")
    if D < 0:  # reduced already: a = 1 comes first
        triples = _reduced_definite(D)
    elif square:  # (a, N, 0) is canonical already: (1, N, 0), or (0, 1, 0) for N = 1
        triples = [(a, N, 0) for a in range(N) if gcd(a, N) == 1]
    else:  # one walk per pair of sigma-image cycles; the principal translate first
        markov = _markov_forms(D, N)
        pending = set(markov)
        least = {}  # insertion-ordered: a cycle that is its own image gives one form twice
        for f in markov:
            if f in pending:
                least.update(dict.fromkeys(_walk_pair(*f, D, N, pending)))
        triples = list(least)
    identity = triples[0]
    triples.sort()
    return triples, identity


def class_group(D: int) -> OrientedClassGroup:
    """The oriented class group of discriminant D (complete, with identity).

    Both signs of non-square D list their reduced forms from the square
    roots of D mod 4a (``_roots_mod_4a``), in O(sqrt|D|) steps.  The
    enumeration is counted as |D|/12 steps for D < 0, D/8 for positive
    non-square D (see _CLASS_GROUP_SCAN_MAX) and N residues of 150 steps
    each for D = N^2; TooLarge is raised before it starts when that exceeds
    _CLASS_GROUP_SCAN_MAX steps.
    """
    triples, identity = _class_triples(D)
    if D < 0:  # the negative classes, sorted: negation reverses the order
        triples = [(-a, -b, -c) for a, b, c in reversed(triples)] + triples
    group = object.__new__(OrientedClassGroup)  # with no __init__, this is its one builder
    group.__dict__.update(disc=D, elements=[_canonical_class(Form(*t), D) for t in triples],
                          identity_index=triples.index(identity))
    return group


# ---------------------------------------------------------------------------
# Special classes and the subgroup they square to


@dataclass(frozen=True)
class SpecialClass:
    """The class of a*x^2 + x*y + c*y^2; always primitive."""

    a: int
    c: int
    cls: FormClass


# divisor_pairs refuses |m| above this: its sqrt(|m|) = 10^7 trial
# divisions take about 1 s (0.98 s on a 2-vCPU x86 host, Python 3.11)
_DIVISOR_PAIRS_MAX = 10**14

# class_group refuses a discriminant whose enumeration is counted as more
# steps than this.  Both signs of non-square D list their forms from the
# square roots of D mod 4a in O(sqrt|D|) steps, but keep the counts of
# the scans those roots replaced.  D < 0 count |D|/12 steps, so
# D < -2.4 * 10^8 is refused, although class_group takes 0.06 s at
# D = -2.4 * 10^8 (h = 8,000) and at most about 0.2 s for the 200
# accepted D nearest it (h up to 38,000, about 13 MB at the peak).
# Positive non-square D count D/8 steps, so D > 1.6 * 10^8 is refused,
# although it takes at most 0.03 s for the 200 D just below that bound
# (0.01 s at D = 100000001, h = 720); each cycle walk is also bounded by
# forms._WALK_MAX.  A residue of the square scan becomes a class with no
# reduction (about 3 us), but each class holds about 300 bytes until the
# call returns, so a residue counts as 150 steps: that bounds the peak
# memory, not the time.  At the bound, D = 133333^2, it is 132,300
# classes, about 40 MB, in 0.4 s; one step per residue would allow
# 2 * 10^7 classes, about 6 GB (2-vCPU x86 host, Python 3.11)
_CLASS_GROUP_SCAN_MAX = 2 * 10**7

# The compositions per call of the two loops that compose a class list:
# OrientedClassGroup.table refuses a group whose table weighs more than
# this, h(h+1)/2 for h classes, so h > 631, and the coset step of
# seifert.enumerate_realizable_pairs refuses h * |T'| above it, h the
# classes it composes.  Both compose one pair of each bar orbit, about
# half of what they are weighed at, and a table of D < 0 composes only
# its k = h/2 positive classes, about half of k(k+1)/2, but is still
# weighed as h(h+1)/2, so the same D are refused.  One composition with
# its reduction takes 2.6-2.9 us for D < 0 (tables of h = 54 to 174),
# 2.5 us for D = N^2 (h = 630 at 631^2: 99,541 compositions, 0.25 s) and
# 6.4 us for D = 100000001 (h = 720, random pairs), so about 1 s at the
# bound (2-vCPU x86 host, Python 3.11)
_TABLE_MAX = 2 * 10**5

# s_plus_subgroup refuses a closure that would take more compositions
# than this, |S+| times the number of generators.  It runs after
# divisor_pairs, which takes up to about 0.2 s at its own bound, so it
# gets half the table's budget.  At D = 1 - 4 * 10^13 (97 generators) it
# raises after 94,187 compositions and 1,257 classes, 0.4 s of a 0.55 s
# call; without a bound that call ran past 40 s (2-vCPU x86 host,
# Python 3.11)
_S_PLUS_MAX = 10**5


def divisor_pairs(m: int) -> list[tuple[int, int]]:
    """All (a, c) with a*c = m, ordered by |a| ascending, positive a first.

    For m = 0 the four sign patterns of (1, 0) and (0, 1) stand in for the
    infinitely many factorizations; they exhaust the classes that occur.
    Trial division up to sqrt(|m|): O(sqrt(|m|)) steps, so TooLarge is
    raised for |m| > _DIVISOR_PAIRS_MAX.
    """
    if m == 0:
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]
    n = abs(m)
    if n > _DIVISOR_PAIRS_MAX:
        raise TooLarge(f"divisor pairs are listed only for |m| <= {_DIVISOR_PAIRS_MAX}, got {m}")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    out = []
    for d in small + large:
        out.append((d, m // d))
        out.append((-d, m // -d))
    return out


def special_classes(D: int) -> list[SpecialClass]:
    """All classes [a x^2 + x y + c y^2] with 1 - 4ac = D, each with its first (a, c)."""
    _require_one_mod_4(D)
    forms = [(a, 1, c) for a, c in divisor_pairs((1 - D) // 4)]
    return [SpecialClass(a, c, _canonical_class(Form(*t), D)) for t, (a, _, c) in _classes(forms, D).items()]


def special_square(a: int, c: int) -> FormClass:
    """[a x^2 + x y + c y^2]^2 = [a^2 x^2 + (1 - 2ac) x y + c^2 y^2]."""
    D = 1 - 4 * a * c  # odd, so never 0
    return _canonical_class(Form(*_special_square(a, c, D)), D)


def _special_square(a: int, c: int, D: int) -> tuple[int, int, int]:
    # the canonical coefficients of special_square(a, c), D = 1 - 4ac != 0
    return _canonical(a * a, 1 - 2 * a * c, c * c, D)


def _require_one_mod_4(D: int) -> None:
    # the gate of the paper's D = 1 mod 4, which orders its two refusals: a
    # non-discriminant (0, or 2 or 3 mod 4) is not-a-discriminant, as at
    # every entry point that takes D, and only then D = 0 mod 4 not-one-mod-4
    _check_discriminant(D)
    if D % 4 != 1:
        raise NotOneMod4(f"{D} is not 1 mod 4")


def _special_witnesses(D: int) -> list[tuple[int, int]]:
    # the divisor pairs of (1 - D)/4 with a > 0: for either sign of D the
    # witness (-a, -c) squares to the class of (a, c) and comes right after
    # it, so no first witness is skipped
    _require_one_mod_4(D)
    return [(a, c) for a, c in divisor_pairs((1 - D) // 4) if a > 0]


def _half_special_squares(D: int) -> list[tuple[int, int, int]]:
    """T': the distinct special squares of D other than the identity, one
    of each inverse pair {t, bar(t)}, as sorted canonical triples.

    The squares come from ``_special_witnesses``, which has a > 0 only:
    for either sign of D, (-a, -c) gives the same square as (a, c).  The
    witnesses (a, c) and (c, a) give inverse squares, so only those with
    a^2 <= |ac| are squared; the first, (1, m), squares to the identity,
    whose class is dropped.  A square is kept unless its inverse already
    is.  The special squares are then {1} + T' + bar(T').
    """
    squares = list(_classes([(a * a, 1 - 2 * a * c, c * c) for a, c in _special_witnesses(D)
                             if a * a <= abs(a * c)], D))
    half = set()
    for a, b, c in sorted(squares[1:]):
        if _canonical_bar(a, b, c, D) not in half:
            half.add((a, b, c))
    return sorted(half)


def s_plus_subgroup(D: int) -> list[FormClass]:
    """The subgroup of the class group generated by all special squares.

    A finite group is generated by T' (``_half_special_squares``) as by
    all of them: the identity adds nothing, and an inverse is a power.
    TooLarge is raised before the closure would pass _S_PLUS_MAX compositions.
    """
    subgroup = _closure({_identity(D)}, _half_special_squares(D), D, _S_PLUS_MAX)
    return [_canonical_class(Form(*t), D) for t in sorted(subgroup)]


def _closure(start: set[tuple[int, int, int]], generators: list[tuple[int, int, int]], D: int,
             budget: int) -> set[tuple[int, int, int]]:
    # start closed under the generators, level by level, each element composed
    # once with each generator; TooLarge before a level would pass budget.  For
    # element_order the closure of {t} under t takes ord(t) compositions, which
    # divides h, so a true class group never passes its budget h
    closed, frontier = start, list(start)
    steps = 0
    while frontier:
        steps += len(frontier) * len(generators)
        if steps > budget:
            raise TooLarge(f"subgroups are closed only up to {budget} compositions, "
                           f"D = {D} with {len(generators)} generators needs more")
        nxt = []
        for x in frontier:
            for g in generators:
                y = _compose_reduced(x, g, D)
                if y not in closed:
                    closed.add(y)
                    nxt.append(y)
        frontier = nxt
    return closed


# ---------------------------------------------------------------------------
# Square discriminants


# an alias of forms.square_residue, kept only because bench/ calls it by
# this name; it goes when the benchmark no longer does
square_normal_form = square_residue


def phi_n(N: int, a: int) -> FormClass:
    """The isomorphism (Z/N)^x -> class group of disc N^2, a -> [a x^2 + N x y]."""
    if N <= 0 or N % 2 == 0:
        raise NotOddPositive(f"N must be odd and positive, got {N}")
    if gcd(a, N) != 1:
        raise NotCoprimeResidue(f"gcd({a}, {N}) != 1")
    return _canonical_class(Form(a % N, N, 0), N * N)  # canonical, as in _class_triples
