"""Integral binary quadratic forms (a, b, c) <-> a*x^2 + b*x*y + c*y^2.

All arithmetic is exact over Python's arbitrary-precision integers.
SL2(Z) acts on forms; the convention is pinned by requiring that the
traceless-matrix identification ``gross`` (see :mod:`qforms.lattice`)
intertwines the action with conjugation:

    gross(act(g, f)) == g @ gross(f) @ g^-1

which forces ``act(g, f) = f o (j g^T j)`` with ``j = diag(1, -1)``.
Any substitution convention yields the same equivalence classes, so
reduction and equivalence testing are unaffected.

Canonical representatives per discriminant regime:

* D < 0: Gauss-reduced form |b| <= a <= c with b >= 0 when |b| == a or
  a == c (positive definite); a negative definite form is canonicalized
  through its negative.  The bar (a, -b, c) of a canonical triple is
  canonical, or the triple itself (``_canonical_bar``), with no reduction.
* D > 0 not a square: the lexicographically least form on the cycle of
  reduced forms (0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b).
  ``_walk`` is the one function that steps a reduced cycle, in one flat
  loop on the magnitudes (2|a|, b, 2|c|), all below 2 sqrt(D): the sign
  of a alternates along the cycle, so after at most one step to reach
  a < 0 each pass takes the step from a < 0 and then the one from a > 0,
  compares only the a < 0 form with the running minimum and tests for
  the return to the start once.  It raises TooLarge past ``_WALK_MAX``
  passes.  Given a set ``stop`` of reduced forms, it strikes off each one
  it meets and ends once the set is empty: ``is_equivalent`` passes the
  partner form, ``compose.class_group`` the Markov forms no walk has met
  yet, and ``seifert`` the reduced forms of the special witnesses.
  ``canonical`` takes the minimum it returns with no ``stop``, and then
  the walk stops at mirror steps f -> (c, b, a): the mirror
  (a, b, c) -> (c, b, a) keeps forms reduced and reverses the neighbor
  step, so only a cycle it maps to itself (an ambiguous class) has such
  steps, exactly two, half the cycle apart.
  Walking from the start and from its mirror each to the next mirror
  step meets half of such a cycle, and the mirrors of those forms are
  the other half; any other cycle is walked in full.
* D = N^2 > 0: content * (a'*x^2 + N'*x*y) where N' = N/content and
  0 <= a' < N' is the normal-form residue of the primitive part, in
  closed form on integers (``square_residue``): the unimodular matrix
  whose first column is the zero ((N' - b) / g, 2a / g) of the primitive
  part, g = gcd(N' - b, 2a), moves it to (0, -N', c'), and a' = c' mod N'.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import (
    NotPrimitive,
    NotSquareDiscriminant,
    NotUnimodular,
    TooLarge,
    ZeroDiscriminant,
    ZeroForm,
)


# The frozen value types here and in lattice and cube declare init=False and
# an __init__ that runs their checks and then writes the fields straight into
# the instance __dict__.  A generated frozen __init__ calls object.__setattr__
# once per field and then __post_init__: 0.7 against 0.37 us for a Form
# (Python 3.11).  The written __dict__ makes each field read about 20 ns
# slower on 3.11, a loss only for objects read dozens of times.  Fields,
# equality, hash, repr and immutability are the dataclass's own.
@dataclass(frozen=True, init=False)
class Form:
    """The form a*x^2 + b*x*y + c*y^2.  The zero form is rejected."""

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int) -> None:
        if a == 0 and b == 0 and c == 0:
            raise ZeroForm("the zero form is not allowed")
        d = self.__dict__
        d["a"], d["b"], d["c"] = a, b, c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"Form({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True, init=False)
class Mat2:
    """A 2x2 integer matrix; SL2(Z) elements are the ones of determinant 1.

    It is also a vector in Z^4 through the basis B of :mod:`qforms.lattice`.
    """

    m11: int
    m12: int
    m21: int
    m22: int

    def __init__(self, m11: int, m12: int, m21: int, m22: int) -> None:
        d = self.__dict__
        d["m11"], d["m12"], d["m21"], d["m22"] = m11, m12, m21, m22

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def bar(self) -> "Mat2":
        """The adjugate; x @ x.bar() = det(x) I, so the inverse in SL2(Z)."""
        return Mat2(self.m22, -self.m12, -self.m21, self.m11)

    def trace(self) -> int:
        return self.m11 + self.m22

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def coords(self) -> tuple[int, int, int, int]:
        """Coordinates in the fixed basis B of :mod:`qforms.lattice`."""
        return (self.m11, self.m22, -self.m21, self.m12)

    @staticmethod
    def from_coords(x1: int, x2: int, x3: int, x4: int) -> "Mat2":
        return Mat2(x1, x4, -x3, x2)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))


def _require_sl2(g: Mat2) -> None:
    if g.det() != 1:
        raise NotUnimodular(f"determinant of {g} must be 1")


def discriminant(f: Form) -> int:
    """b^2 - 4ac."""
    return f.b * f.b - 4 * f.a * f.c


def content(f: Form) -> int:
    """gcd(|a|, |b|, |c|) >= 1; the form is primitive iff content == 1."""
    return gcd(gcd(abs(f.a), abs(f.b)), abs(f.c))


def act(g: Mat2, f: Form) -> Form:
    """Left SL2(Z) action fixed by gross(act(g, f)) = g gross(f) g^-1.

    Concretely, for g = ((p, q), (r, s)) this is the substitution by
    j g^T j with j = diag(1, -1), (x, y) -> (p x - r y, -q x + s y); it
    preserves discriminant and content, and act(g @ h, f) == act(g, act(h, f)).
    Raises NotUnimodular unless det(g) == 1.
    """
    _require_sl2(g)
    p, q, r, s = g.m11, g.m12, g.m21, g.m22
    return Form(f(p, -q), f.b * (p * s + q * r) - 2 * (f.a * p * r + f.c * q * s), f(-r, s))


def bar(f: Form) -> Form:
    """Orientation reversal q(x, y) -> q(-x, y); inverts primitive classes."""
    return Form(f.a, -f.b, f.c)


def neg(f: Form) -> Form:
    """(a, b, c) -> (-a, -b, -c); preserves the discriminant."""
    return Form(-f.a, -f.b, -f.c)


# ---------------------------------------------------------------------------
# Reduction: definite forms (D < 0)


def _reduce_positive_definite(a: int, b: int, c: int) -> tuple[int, int, int]:
    # Gauss reduction; every step is a proper (SL2) substitution.
    while True:
        # x -> x + k y takes b to r = b + 2ak, the one in (-a, a], and c to
        # a k^2 + b k + c = c + k (r + b) / 2, exact as r = b (mod 2); k = 0
        # when b is in (-a, a] already
        k, e = divmod(a - b, 2 * a)
        r = a - e
        c += k * ((r + b) // 2)
        if a <= c:
            break
        a, b, c = c, -r, a
    if a == c and r < 0:
        r = -r
    return a, r, c


# ---------------------------------------------------------------------------
# Reduction: indefinite forms (D > 0, not a square)


def _reduce_indefinite(a: int, b: int, c: int, D: int, sq: int) -> tuple[int, int, int]:
    # Neighbor steps (a, b, c) -> (c, r, (r^2 - D) / 4c) with r ~ -b mod 2|c|
    # in the standard window, until the form is reduced: 0 < b < sqrt(D) and
    # sqrt(D) - b < 2|a| < sqrt(D) + b; for D not a square, x < sqrt(D) is
    # x <= sq = isqrt(D) on integers, so the test is exact.  c == 0 would
    # force D = b^2, excluded in this regime
    while not (0 < b <= sq and sq - b < 2 * abs(a) <= sq + b):
        hi = abs(c) if c * c > D else sq  # window (hi - 2|c|, hi]
        r = hi - (hi + b) % (2 * abs(c))
        a, b, c = c, r, (r * r - D) // (4 * c)
    return a, b, c


# _walk raises TooLarge past this many passes (two neighbor steps each, so
# 4 * 10^6 forms, or an ambiguous cycle of 8 * 10^6 for canonical).  A pass
# takes about 0.45 us while the values fit one machine digit (D below about
# 2.9 * 10^17) and 0.9 us at D = 10^20, so the bound is 0.9-2 s.  The
# longest cycle of the benchmark pool has 485,404 forms (D = 584637511777,
# ambiguous: 0.06 s, 0.12 s for a full walk); class_group accepts D up to
# 1.6 * 10^8, and the longest principal cycle of the 2,000 discriminants
# just below that has 45,398 forms (2-vCPU x86 host, Python 3.11)
_WALK_MAX = 2 * 10**6


def _walk(a: int, b: int, c: int, D: int, sq: int, stop=None):
    """Walk the cycle of the reduced form (a, b, c) (D > 0 non-square,
    sq = isqrt(D)) and return its least form.  Given a set ``stop`` of
    reduced forms, the walk strikes off each of them it meets, the start
    included, and returns None as soon as the set is empty.  TooLarge is
    raised past ``_WALK_MAX`` passes.

    This is the one place where a reduced cycle is stepped.  A reduced form
    has |c| < sqrt(D), so the neighbor step (a, b, c) -> (c, r, .) takes
    r = -b mod 2|c| in the window (sqrt(D) - 2|c|, sqrt(D)].  On a reduced
    cycle a and c have opposite signs, so the sign of a alternates, and the
    walk steps on the magnitudes (U, b, V) = (2|a|, b, 2|c|): with
    q = (sq + b) // V and r = qV - b, the next triple is (V, r, U + q(b - r)),
    since D - b^2 = UV on either half of the cycle.  Every value stays below
    2 sqrt(D), with no product of the size of D and no division by 4c.
    After one step from a > 0, each pass takes the step from a < 0 and
    then the one from a > 0.  The least form has a < 0, so it is the one
    with the largest U, then the least b.  A walk with ``stop`` takes
    O(L + |stop|) for a cycle of L forms, however the two compare.

    Without ``stop`` the walk stops at mirror steps.
    The mirror rho(a, b, c) = (c, b, a) of a reduced form is reduced, and
    it reverses the neighbor step: if g follows f, rho(f) follows rho(g).
    So a step f -> rho(f), which on the magnitudes is a step with r == b,
    occurs only on a cycle that rho maps to itself (an ambiguous class),
    and such a cycle of L forms has exactly two of them, L/2 steps apart.
    The walk goes forward from the start f0 to the first mirror step, then
    from rho(f0) to the next one; the forms X met in the two walks and
    their mirrors rho(X) make up the whole cycle, which costs L/2 + O(1)
    steps.  A form met with a < 0 is compared by (U, b), one with a > 0 by
    the (V, b) of its mirror (-V/2, b, U/2); the two minima are kept apart
    until a mirror step shows the cycle ambiguous.  A walk that comes back
    to f0 first is on a cycle that is not ambiguous and returns the a < 0
    minimum after all L steps.  The two walks share the budget.
    """
    if stop is None:
        nU = nb = nV = mU = mb = mV = 0  # least a < 0 form; least mirror of an a > 0 one
        left = _WALK_MAX
        for a, b, c in ((a, b, c), (c, b, a)):
            if a > 0:
                U, V = 2 * a, -2 * c
                if V >= mU and (V > mU or b < mb):
                    mU, mb, mV = V, b, U
                q = (sq + b) // V
                r = q * V - b
                if r == b:
                    continue
                U, b, V = V, r, U + q * (b - r)
            else:
                U, V = -2 * a, 2 * c
            U0, b0 = U, b
            if U >= nU and (U > nU or b < nb):
                nU, nb, nV = U, b, V
            for i in range(left):
                # a < 0 < c
                q = (sq + b) // V
                r = q * V - b
                if r == b:
                    break
                U, b, V = V, r, U + q * (b - r)
                # a > 0 > c
                if V >= mU and (V > mU or b < mb):
                    mU, mb, mV = V, b, U
                q = (sq + b) // V
                r = q * V - b
                if r == b:
                    break
                U, b, V = V, r, U + q * (b - r)
                if b == b0 and U == U0:
                    return -nU >> 1, nb, nV >> 1
                if U >= nU and (U > nU or b < nb):
                    nU, nb, nV = U, b, V
            else:
                raise TooLarge(f"cycles are walked only up to {_WALK_MAX} passes of two steps, "
                               f"a cycle of D = {D} is longer")
            left -= i + 1
        if mU > nU or (mU == nU and mb < nb):
            return -mU >> 1, mb, mV >> 1
        return -nU >> 1, nb, nV >> 1
    stop.discard((a, b, c))
    if not stop:
        return None
    if a > 0:
        U, V = 2 * a, -2 * c
        q = (sq + b) // V
        r = q * V - b
        U, b, V = V, r, U + q * (b - r)
    else:
        U, V = -2 * a, 2 * c
    U0, b0 = U, b
    best_U, best_b, best_V = U, b, V
    # every form met is tested against stop until the walk has taken as
    # many passes as stop held forms; from then on only a form whose b is
    # in bs.  Building bs costs O(|stop|), so a short cycle against a large
    # set and a long cycle against a small one both cost O(L + |stop|)
    bs, n = None, len(stop)
    for i in range(_WALK_MAX):
        if i == n:
            bs = {f[1] for f in stop}
        # a < 0 < c
        if bs is None or b in bs:
            f = (-U >> 1, b, V >> 1)
            if f in stop:
                stop.remove(f)
                if not stop:
                    return None
        q = (sq + b) // V
        r = q * V - b
        U, b, V = V, r, U + q * (b - r)
        # a > 0 > c
        if bs is None or b in bs:
            f = (U >> 1, b, -V >> 1)
            if f in stop:
                stop.remove(f)
                if not stop:
                    return None
        q = (sq + b) // V
        r = q * V - b
        U, b, V = V, r, U + q * (b - r)
        if b == b0 and U == U0:
            return -best_U >> 1, best_b, best_V >> 1
        if U >= best_U and (U > best_U or b < best_b):
            best_U, best_b, best_V = U, b, V
    raise TooLarge(f"cycles are walked only up to {_WALK_MAX} passes of two steps, "
                   f"a cycle of D = {D} is longer")


# ---------------------------------------------------------------------------
# Reduction: square discriminants (D = N^2 > 0)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def square_residue(f: Form) -> tuple[int, int]:
    """(N, a mod N) with f properly equivalent to a*x^2 + N*x*y, f primitive.

    Closed form, no search: for f = (a, b, c) with a != 0, the zero
    (x0, y0) = ((N - b) / g, 2a / g) of f, g = gcd(N - b, 2a) and y0 > 0,
    is primitive; with u = x0^-1 mod y0 and v = (1 - x0 u) / y0 the
    substitution ((x0, -v), (y0, u)) has determinant 1 and moves f to
    (0, -N, f(-v, u)) in every case.  Indeed f = a (x - r1 y)(x - r2 y)
    with r1 = x0 / y0 and r2 = r1 - N / a, and the substitution turns the
    first factor into -Y / y0 and the second into (y0 N / a) X + k Y, so
    the middle coefficient is a (-1 / y0)(y0 N / a) = -N.  The S-swap
    takes (0, -N, c') to (c', N, 0), so the residue is f(-v, u) mod N.
    For a = 0 the form is (0, +-N, c) already: the residue is c mod N for
    b = -N and c^-1 mod N for b = N, as (0, N, c) swaps to (c, -N, 0).
    """
    D = discriminant(f)
    N = isqrt(D) if D > 0 else 0
    if D <= 0 or N * N != D:
        raise NotSquareDiscriminant(f"disc {D} is not a positive square")
    if content(f) != 1:
        raise NotPrimitive("square normal form requires a primitive form")
    return N, _square_residue(f.a, f.b, f.c, N)


def _square_residue(a: int, b: int, c: int, N: int) -> int:
    # the residue of square_residue for the primitive (a, b, c) of
    # discriminant N^2, on integers
    if a == 0:
        return c % N if b == -N else pow(c, -1, N)
    g = gcd(N - b, 2 * a)
    x0, y0 = (N - b) // g, 2 * a // g
    if y0 < 0:
        x0, y0 = -x0, -y0
    u = pow(x0, -1, y0)
    v = (1 - x0 * u) // y0
    return (a * v * v - b * v * u + c * u * u) % N


# ---------------------------------------------------------------------------
# Canonical representatives and equivalence


def canonical(f: Form) -> Form:
    """The canonical representative of the proper equivalence class of f."""
    D = discriminant(f)
    if D == 0:
        raise ZeroDiscriminant("no canonical form for discriminant 0")
    return Form(*_canonical(f.a, f.b, f.c, D))


def _canonical(a: int, b: int, c: int, D: int) -> tuple[int, int, int]:
    # the coefficients of canonical(Form(a, b, c)), D = b^2 - 4ac != 0
    if D < 0:
        if a > 0:
            return _reduce_positive_definite(a, b, c)
        a, b, c = _reduce_positive_definite(-a, -b, -c)
        return -a, -b, -c
    N = isqrt(D)
    if N * N == D:
        m = gcd(a, b, c)
        return m * _square_residue(a // m, b // m, c // m, N // m), N, 0
    return _walk(*_reduce_indefinite(a, b, c, D, N), D, N)


def _canonical_bar(a: int, b: int, c: int, D: int) -> tuple[int, int, int]:
    # the canonical coefficients of the bar (a, -b, c) of the canonical
    # triple (a, b, c).  For D > 0 the S-swap takes (a, -b, c) to the mirror
    # (c, b, a), which is reduced for D not a square, so the walk starts there
    # with no reduction step.  For D < 0, of either sign and any content,
    # (a, -b, c) is reduced, and it is canonical unless b = 0, |b| = |a| or
    # a = c: then the class is its own bar (b = -a is not canonical, so
    # |b| = |a| is b = a)
    if D > 0:
        return _canonical(c, b, a, D)
    if b == 0 or b == a or a == c:
        return a, b, c
    return a, -b, c


def is_equivalent(f1: Form, f2: Form) -> bool:
    """Proper (SL2(Z)) equivalence.

    For D > 0 non-square both forms are reduced, and the cycle of the first
    is walked until it meets the second (equivalent) or comes back to its
    start (not): two reduced forms are equivalent iff they share a cycle.
    That is at most one walk, and far less when the two lie close together.
    Other discriminants compare canonical representatives.
    """
    D = discriminant(f1)
    if D != discriminant(f2) or content(f1) != content(f2):
        if D == 0 or discriminant(f2) == 0:
            raise ZeroDiscriminant("equivalence is undefined for discriminant 0")
        return False
    N = isqrt(D) if D > 0 else 0
    if D <= 0 or N * N == D:
        return canonical(f1) == canonical(f2)
    r2 = _reduce_indefinite(f2.a, f2.b, f2.c, D, N)
    return _walk(*_reduce_indefinite(f1.a, f1.b, f1.c, D, N), D, N, stop={r2}) is None


@dataclass(frozen=True, init=False)
class FormClass:
    """A proper equivalence class, stored by its canonical representative."""

    representative: Form
    disc: int

    def __init__(self, representative: Form, disc: int) -> None:
        d = self.__dict__
        d["representative"], d["disc"] = representative, disc

    @staticmethod
    def of(f: Form) -> "FormClass":
        rep = canonical(f)
        return FormClass(rep, discriminant(rep))

    @property
    def content(self) -> int:
        return content(self.representative)

    def coeffs(self) -> tuple[int, int, int]:
        return self.representative.coeffs()

    def __repr__(self) -> str:
        a, b, c = self.coeffs()
        return f"[{a},{b},{c}]"


def form_class(a: int, b: int, c: int) -> FormClass:
    """Convenience constructor: the class of a*x^2 + b*x*y + c*y^2."""
    return FormClass.of(Form(a, b, c))
