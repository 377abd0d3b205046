"""Gauss composition and oriented class groups.

Composition of classes [q1] * [q2] is defined whenever the contents are
coprime.  It is computed through a concordant pair: representatives

    a1*x^2 + b*x*y + c1*y^2,   a2*x^2 + b*x*y + c2*y^2

with gcd(a1, a2) = 1 and a1, a2 != 0 (equal discriminants then force
a1 | c2 and a2 | c1), whose composite is

    a1*a2*x^2 + b*x*y + ((b^2 - D) / (4*a1*a2))*y^2.

The resulting class is independent of all choices and has content
content(q1) * content(q2).  The representatives are found in closed
form, not by search: q1 is moved to a form whose leading coefficient a1
is coprime to content(q2), then q2 to one whose leading coefficient a2
is coprime to a1.  Each move is one SL2(Z) substitution whose first
column (x, y) is built from gcds alone, so that q(x, y) is coprime to
the target.  The common middle coefficient b then follows from the
Chinese remainder theorem.

Class groups are enumerated per discriminant regime: Gauss-reduced forms
of both definiteness signs for D < 0, reduced cycles for positive
non-square D, and the residue parametrization a mod N -> [a x^2 + N x y]
for D = N^2.  For positive non-square D the reduced forms are listed
from the exact window on |a| for each b, and each cycle is walked once
by ``forms._walk``, which returns its least form (the class
representative) and lists its members; all of them are marked with that
representative, so R reduced forms cost O(R) steps, not one cycle walk
each.  Every function here is pure: nothing reads or writes files
(only the ``qforms classgroup`` command keeps a cache, in ``qforms.cli``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

from .errors import (
    MismatchedDiscriminant,
    NotADiscriminant,
    NotCoprimeContent,
    NotCoprimeResidue,
    NotOddPositive,
    NotOneMod4,
    NotPrimitive,
    ZeroDiscriminant,
)
from .forms import (
    Form,
    FormClass,
    bar,
    content,
    discriminant,
    form_class,
    is_primitive,
    neg,
    square_residue,
    substitute,
    _ext_gcd,
    _extend_unimodular,
    _walk,
)


# ---------------------------------------------------------------------------
# Concordance and Dirichlet composition


def _with_leading(f: Form, coprime_to: int) -> Form:
    """An equivalent form whose leading coefficient is nonzero and coprime
    to N = |coprime_to|; requires gcd(N, content(f)) = 1.

    Closed form (Cox, Primes of the form x^2 + ny^2, Lemma 2.25): y is the
    largest divisor of N coprime to a, x the largest divisor of N / y
    coprime to c.  Every prime p | N then divides exactly one of x, y, or
    neither when p divides a and c (and so not b), so p does not divide
    f(x, y) = a x^2 + b x y + c y^2.
    """
    a, b, c = f.a, f.b, f.c
    n = abs(coprime_to)
    if a != 0 and gcd(a, n) == 1:
        return f
    if c != 0 and gcd(c, n) == 1:
        return Form(c, -b, a)  # the S-swap (x, y) -> (-y, x)
    if n == 1:  # a = c = 0: f(x, x + y) = b x^2 + b x y
        return Form(b, b, 0)
    y = _coprime_part(n, a)
    x = _coprime_part(n // y, c)
    g = _extend_unimodular(x, y)
    return substitute(f, g.m11, g.m12, g.m21, g.m22)


def _coprime_part(n: int, a: int) -> int:
    # the largest divisor of n coprime to a, by gcd steps, no factoring
    g = gcd(n, a)
    while g != 1:
        n //= g
        g = gcd(n, g)
    return n


def _translate_middle(f: Form, b: int, D: int) -> Form:
    # b == f.b mod 2*f.a, so the translated form is (a, b, (b^2-D)/(4a))
    return Form(f.a, b, (b * b - D) // (4 * f.a))


def concordant_pair(f1: Form, f2: Form) -> tuple[Form, Form]:
    """Concordant representatives of [f1], [f2] (coprime contents).

    The returned forms share their middle coefficient and have coprime
    nonzero leading coefficients; each leading coefficient divides the
    other form's last coefficient.
    """
    D = discriminant(f1)
    if D == 0 or discriminant(f2) == 0:
        raise ZeroDiscriminant("concordance requires nonzero discriminants")
    if discriminant(f2) != D:
        raise MismatchedDiscriminant(f"{discriminant(f2)} != {D}")
    m1, m2 = content(f1), content(f2)
    if gcd(m1, m2) != 1:
        raise NotCoprimeContent(f"contents {m1}, {m2} are not coprime")
    if f1.a != 0 and f2.a != 0 and f1.b == f2.b and gcd(f1.a, f2.a) == 1:
        return f1, f2  # already concordant
    g1 = _with_leading(f1, m2)
    g2 = _with_leading(f2, g1.a)
    # common middle coefficient: b = b1 mod 2a1 and b = b2 mod 2a2; the
    # parities of b1 and b2 agree (both match D), so CRT applies with
    # gcd(2a1, 2a2) = 2
    a1, a2 = g1.a, g2.a
    _, u, _ = _ext_gcd(2 * a1, 2 * a2)
    diff = g2.b - g1.b
    if diff % 2:
        raise AssertionError(f"middle coefficients {g1.b}, {g2.b} differ in parity")
    b = g1.b + 2 * a1 * u * (diff // 2)
    h1 = _translate_middle(g1, b, D)
    h2 = _translate_middle(g2, b, D)
    if h2.c % h1.a or h1.c % h2.a:
        raise AssertionError(f"{h1}, {h2} are not concordant")
    return h1, h2


def dirichlet_compose(f1: Form, f2: Form) -> Form:
    """A form in the class [f1] * [f2] (contents must be coprime)."""
    h1, h2 = concordant_pair(f1, f2)
    D = discriminant(f1)
    a = h1.a * h2.a
    return Form(a, h1.b, (h1.b * h1.b - D) // (4 * a))


def class_compose(s1: FormClass, s2: FormClass) -> FormClass:
    """Composition on classes; defined for coprime contents."""
    return FormClass.of(dirichlet_compose(s1.representative, s2.representative))


def class_bar(s: FormClass) -> FormClass:
    """[q] -> [bar(q)], defined for every class."""
    return FormClass.of(bar(s.representative))


def class_power(s: FormClass, n: int) -> FormClass:
    """s**n for primitive s; n < 0 through the inverse [bar(q)]."""
    if n < 0:
        if s.content != 1:
            raise NotPrimitive("inversion is defined for primitive classes only")
        return class_power(class_bar(s), -n)
    result = identity_class(s.disc)
    base = s
    while n:
        if n & 1:
            result = class_compose(result, base)
        n >>= 1
        if n:
            base = class_compose(base, base)
    return result


def identity_class(D: int) -> FormClass:
    """The neutral class of discriminant D."""
    _check_discriminant(D)
    if D % 4 == 1:
        return form_class(1, 1, (1 - D) // 4)
    return form_class(1, 0, -D // 4)


def _check_discriminant(D: int) -> None:
    if D == 0 or D % 4 not in (0, 1):
        raise NotADiscriminant(f"{D} is not a nonzero discriminant")


# ---------------------------------------------------------------------------
# Class group enumeration


@dataclass
class OrientedClassGroup:
    """All primitive classes of one discriminant under composition."""

    disc: int
    elements: list[FormClass]
    identity_index: int
    _table: list[list[int]] | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def table(self) -> list[list[int]]:
        """The composition table as an index matrix, computed lazily."""
        if self._table is None:
            idx = {s: i for i, s in enumerate(self.elements)}
            self._table = [
                [idx[class_compose(x, y)] for y in self.elements]
                for x in self.elements
            ]
        return self._table

    def element_order(self, s: FormClass) -> int:
        n = 1
        acc = s
        e = self.elements[self.identity_index]
        while acc != e:
            acc = class_compose(acc, s)
            n += 1
        return n

    def to_dict(self) -> dict:
        return {
            "disc": self.disc,
            "elements": [list(s.coeffs()) for s in self.elements],
            "identity": self.identity_index,
            "table": self.table(),
        }


def _reduced_definite(D: int) -> list[Form]:
    # positive definite Gauss-reduced primitive forms of discriminant D < 0
    out = []
    amax = isqrt(-D // 3) + 1
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            f = Form(a, b, c)
            if is_primitive(f):
                out.append(f)
    return out


def _reduced_indefinite(D: int, sq: int) -> list[tuple[int, int, int]]:
    # all reduced primitive forms: 0 < b < sqrt(D), sqrt(D)-b < 2|a| < sqrt(D)+b;
    # with sqrt(D) irrational the window on |a| is exactly
    # ceil((sq+1-b)/2) <= |a| <= floor((sq+b)/2), sq = isqrt(D)
    out = []
    for b in range(2 - D % 2, sq + 1, 2):
        prod = (b * b - D) // 4  # == a*c < 0
        for aa in range((sq + 2 - b) // 2, (sq + b) // 2 + 1):
            if prod % aa:
                continue
            c = prod // aa
            if gcd(gcd(aa, b), c) == 1:
                out.append((aa, b, c))
                out.append((-aa, b, -c))
    return out


def _indefinite_classes(D: int) -> tuple[list[FormClass], FormClass]:
    """The classes of D > 0 non-square and the identity class among them.

    Each reduced cycle is walked once: its members are marked and its least
    form is the class representative, so R reduced forms cost O(R) steps.
    """
    sq = isqrt(D)
    rep_of = {}
    classes = []
    for f in _reduced_indefinite(D, sq):
        if f not in rep_of:
            cycle = []
            rep = _walk(*f, D, sq, members=cycle)
            rep_of.update(dict.fromkeys(cycle, rep))
            classes.append(FormClass(Form(*rep), D))
    # (1, b, (b^2 - D)/4) with b = sq or sq - 1 of D's parity is reduced and
    # a translate of the principal form, so its cycle is the identity class
    b = sq - (sq - D) % 2
    return classes, FormClass(Form(*rep_of[(1, b, (b * b - D) // 4)]), D)


def class_group(D: int) -> OrientedClassGroup:
    """The oriented class group of discriminant D (complete, with identity)."""
    _check_discriminant(D)
    N = isqrt(D) if D > 0 else 0
    if D > 0 and N * N != D:
        classes, identity = _indefinite_classes(D)
    else:
        identity = identity_class(D)
        if D < 0:
            classes = set()
            for f in _reduced_definite(D):
                classes.add(FormClass.of(f))
                classes.add(FormClass.of(neg(f)))
        elif N == 1:
            classes = {identity}
        else:
            classes = {form_class(a, N, 0) for a in range(1, N) if gcd(a, N) == 1}
    elements = sorted(classes, key=lambda s: s.coeffs())
    return OrientedClassGroup(D, elements, elements.index(identity))


# ---------------------------------------------------------------------------
# Special classes and the subgroup they square to


@dataclass(frozen=True)
class SpecialClass:
    """The class of a*x^2 + x*y + c*y^2; always primitive."""

    a: int
    c: int
    cls: FormClass

    @staticmethod
    def of(a: int, c: int) -> "SpecialClass":
        return SpecialClass(a, c, form_class(a, 1, c))

    @property
    def disc(self) -> int:
        return 1 - 4 * self.a * self.c


def divisor_pairs(m: int) -> list[tuple[int, int]]:
    """All (a, c) with a*c = m, ordered by |a| ascending, positive a first.

    For m = 0 the four sign patterns of (1, 0) and (0, 1) stand in for the
    infinitely many factorizations; they exhaust the classes that occur.
    Trial division up to sqrt(|m|): O(sqrt(|m|)) steps.
    """
    if m == 0:
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]
    n = abs(m)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    out = []
    for d in small + large:
        out.append((d, m // d))
        out.append((-d, m // -d))
    return out


def special_classes(D: int) -> list[SpecialClass]:
    """All classes [a x^2 + x y + c y^2] with 1 - 4ac = D, deduplicated."""
    _require_one_mod_4(D)
    m = (1 - D) // 4
    seen = {}
    for a, c in divisor_pairs(m):
        s = SpecialClass.of(a, c)
        if s.cls not in seen:
            seen[s.cls] = s
    return list(seen.values())


def special_square(a: int, c: int) -> FormClass:
    """[a x^2 + x y + c y^2]^2 = [a^2 x^2 + (1 - 2ac) x y + c^2 y^2]."""
    if 1 - 4 * a * c == 0:
        raise ZeroDiscriminant("1 - 4ac must be nonzero")
    return form_class(a * a, 1 - 2 * a * c, c * c)


def _require_one_mod_4(D: int) -> None:
    if D == 0 or D % 4 != 1:
        raise NotOneMod4(f"{D} is not a nonzero integer = 1 mod 4")


def s_plus_subgroup(D: int) -> list[FormClass]:
    """The subgroup of the class group generated by all special squares."""
    _require_one_mod_4(D)
    generators = {special_square(s.a, s.c) for s in special_classes(D)}
    subgroup = {identity_class(D)}
    frontier = list(subgroup)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = class_compose(x, g)
                if y not in subgroup:
                    subgroup.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(subgroup, key=lambda s: s.coeffs())


# ---------------------------------------------------------------------------
# Square discriminants


def square_normal_form(f: Form) -> tuple[int, int]:
    """(N, a mod N) with [f] = [a x^2 + N x y], for primitive f, disc = N^2."""
    return square_residue(f)


def phi_n(N: int, a: int) -> FormClass:
    """The isomorphism (Z/N)^x -> class group of disc N^2, a -> [a x^2 + N x y]."""
    if N <= 0 or N % 2 == 0:
        raise NotOddPositive(f"N must be odd and positive, got {N}")
    if gcd(a, N) != 1:
        raise NotCoprimeResidue(f"gcd({a}, {N}) != 1")
    if N == 1:
        return form_class(0, 1, 0)
    return form_class(a % N, N, 0)
