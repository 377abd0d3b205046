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
  through its negative.
* D > 0 not a square: the lexicographically least form on the cycle of
  reduced forms (0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b).
  ``_walk`` is the one function that steps a reduced cycle, in one flat
  loop: the sign of a alternates along the cycle, so after at most one
  step to reach a < 0 each pass takes the step from a < 0 and then the
  one from a > 0, compares only the a < 0 form with the running minimum
  and tests for the return to the start once.  ``canonical`` takes the
  minimum it returns, ``is_equivalent`` stops it when it meets the
  partner form (also before its first step), and ``compose.class_group``
  has it list each cycle once to mark all of its members.
* D = N^2 > 0: content * (a'*x^2 + N'*x*y) where N' = N/content and
  0 <= a' < N' is the normal-form residue of the primitive part.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import NotPrimitive, NotSquareDiscriminant, NotUnimodular, ZeroDiscriminant, ZeroForm


@dataclass(frozen=True)
class Form:
    """The form a*x^2 + b*x*y + c*y^2.  The zero form is rejected."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ZeroForm("the zero form is not allowed")

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"Form({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class Mat2:
    """A 2x2 integer matrix; SL2(Z) elements are the ones of determinant 1.

    It is also a vector in Z^4 through the basis B of :mod:`qforms.lattice`.
    """

    m11: int
    m12: int
    m21: int
    m22: int

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 + other.m11, self.m12 + other.m12,
                    self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 - other.m11, self.m12 - other.m12,
                    self.m21 - other.m21, self.m22 - other.m22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def scale(self, k: int) -> "Mat2":
        return Mat2(k * self.m11, k * self.m12, k * self.m21, k * self.m22)

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

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(a, b, c, d)


def _require_sl2(g: Mat2) -> None:
    if g.det() != 1:
        raise NotUnimodular(f"determinant of {g} must be 1")


# Generators of SL2(Z) used by the brute-force orbit oracle in the tests.
GEN_S = Mat2(0, -1, 1, 0)
GEN_T = Mat2(1, 1, 0, 1)
GEN_T_INV = Mat2(1, -1, 0, 1)


def discriminant(f: Form) -> int:
    """b^2 - 4ac."""
    return f.b * f.b - 4 * f.a * f.c


def content(f: Form) -> int:
    """gcd(|a|, |b|, |c|) >= 1; the form is primitive iff content == 1."""
    return gcd(gcd(abs(f.a), abs(f.b)), abs(f.c))


def is_primitive(f: Form) -> bool:
    return content(f) == 1


def substitute(f: Form, m11: int, m12: int, m21: int, m22: int) -> Form:
    """f((x, y) -> (m11*x + m12*y, m21*x + m22*y)) for any integer matrix."""
    a = f(m11, m21)
    c = f(m12, m22)
    b = 2 * f.a * m11 * m12 + f.b * (m11 * m22 + m12 * m21) + 2 * f.c * m21 * m22
    return Form(a, b, c)


def act(g: Mat2, f: Form) -> Form:
    """Left SL2(Z) action fixed by gross(act(g, f)) = g gross(f) g^-1.

    Concretely this is substitution by j g^T j with j = diag(1, -1); it
    preserves discriminant and content, and act(g @ h, f) == act(g, act(h, f)).
    Raises NotUnimodular unless det(g) == 1.
    """
    _require_sl2(g)
    return substitute(f, g.m11, -g.m21, -g.m12, g.m22)


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
        if not (-a < b <= a):
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            k = (r - b) // (2 * a)
            c = a * k * k + b * k + c
            b = r
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return a, b, c


# ---------------------------------------------------------------------------
# Reduction: indefinite forms (D > 0, not a square)


def _is_reduced_indefinite(a: int, b: int, D: int) -> bool:
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, all exact.
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    if (t + b) * (t + b) <= D:
        return False
    return t < b or (t - b) * (t - b) < D


def _reduce_indefinite(a: int, b: int, c: int, D: int, sq: int) -> tuple[int, int, int]:
    # Neighbor steps (a, b, c) -> (c, r, (r^2 - D) / 4c) with r ~ -b mod 2|c|
    # in the standard window, until the form is reduced; c == 0 would force
    # D = b^2, excluded in this regime
    while not _is_reduced_indefinite(a, b, D):
        hi = abs(c) if c * c > D else sq  # window (hi - 2|c|, hi]
        r = hi - (hi + b) % (2 * abs(c))
        a, b, c = c, r, (r * r - D) // (4 * c)
    return a, b, c


def _walk(a: int, b: int, c: int, D: int, sq: int, stop=(0, 0, 0), members=None):
    """Walk the cycle of the reduced form (a, b, c) once (D > 0 non-square,
    sq = isqrt(D)) and return its least form, or None as soon as the walk
    meets the form ``stop``; the default, the zero form, is on no cycle.
    Given a list ``members``, it appends each form of the cycle once, in
    cycle order, from the first form with a < 0.

    This is the one place where a reduced cycle is stepped.  A reduced form
    has |c| < sqrt(D), so the neighbor step (a, b, c) -> (c, r, .) takes
    r = -b mod 2|c| in the window (sqrt(D) - 2|c|, sqrt(D)].  On a reduced
    cycle a and c have opposite signs, so the sign of a alternates: after
    one step from a > 0, each loop takes the step from a < 0 (modulus 2c)
    and then the one from a > 0 (modulus -2c).  The least form has a < 0,
    so only that half is compared with the running minimum, and the test
    for the return to the start runs once per loop.
    """
    sa, sb, _ = stop
    if a == sa and b == sb:  # (a, b) determine c
        return None
    if a > 0:
        r = sq - (sq + b) % (-2 * c)
        a, b, c = c, r, (r * r - D) // (4 * c)
    a0, b0 = a, b
    best_a, best_b, best_c = a, b, c
    while True:
        # a < 0 < c
        if a == sa and b == sb:
            return None
        if members is not None:
            members.append((a, b, c))
        r = sq - (sq + b) % (2 * c)
        a, b, c = c, r, (r * r - D) // (4 * c)
        # a > 0 > c
        if a == sa and b == sb:
            return None
        if members is not None:
            members.append((a, b, c))
        r = sq - (sq + b) % (-2 * c)
        a, b, c = c, r, (r * r - D) // (4 * c)
        if b == b0 and a == a0:
            return best_a, best_b, best_c
        if a <= best_a and (a < best_a or b < best_b):
            best_a, best_b, best_c = a, b, c


# ---------------------------------------------------------------------------
# Reduction: square discriminants (D = N^2 > 0)


def _primitive_zero(f: Form, N: int) -> tuple[int, int]:
    """A primitive (x0, y0) with f(x0, y0) = 0, for disc(f) = N^2."""
    if f.a == 0:
        return (1, 0)
    # f = a (x - r1 y)(x - r2 y) with r1 = (-b + N) / (2a)
    num, den = -f.b + N, 2 * f.a
    g = gcd(num, den)
    x0, y0 = num // g, den // g
    if y0 < 0:
        x0, y0 = -x0, -y0
    return (x0, y0)


def _extend_unimodular(x0: int, y0: int) -> Mat2:
    """Some g in SL2(Z) whose first column is the primitive vector (x0, y0)."""
    g0, u, v = _ext_gcd(x0, y0)
    if g0 != 1:
        raise ValueError("vector is not primitive")
    # x0 * u + y0 * v = 1, so ((x0, -v), (y0, u)) has determinant 1
    return Mat2(x0, -v, y0, u)


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

    Follows the integral factorization of a square-discriminant form:
    transform a primitive zero to (1, 0), leaving (0, +-N, c'); the
    residue is then c' mod N, inverted mod N when the middle sign is +N.
    """
    D = discriminant(f)
    N = isqrt(D) if D > 0 else 0
    if D <= 0 or N * N != D:
        raise NotSquareDiscriminant(f"disc {D} is not a positive square")
    if not is_primitive(f):
        raise NotPrimitive("square normal form requires a primitive form")
    x0, y0 = _primitive_zero(f, N)
    g0 = _extend_unimodular(x0, y0)
    f1 = substitute(f, g0.m11, g0.m12, g0.m21, g0.m22)
    # f1 = (0, +-N, c1); swap via S to put the zero coefficient last
    c1 = f1.c
    if f1.b == -N:
        return (N, c1 % N)
    # (c1, -N, 0) ~ Q_{N, c1^-1 mod N}
    _, inv, _ = _ext_gcd(c1 % N if N > 1 else 0, N)
    return (N, inv % N if N > 1 else 0)


def _canonical_square(f: Form, D: int) -> Form:
    m = content(f)
    N = isqrt(D)
    prim = Form(f.a // m, f.b // m, f.c // m)
    _, res = square_residue(prim)
    return Form(m * res, N, 0)


# ---------------------------------------------------------------------------
# Canonical representatives and equivalence


def canonical(f: Form) -> Form:
    """The canonical representative of the proper equivalence class of f."""
    D = discriminant(f)
    if D == 0:
        raise ZeroDiscriminant("no canonical form for discriminant 0")
    if D < 0:
        if f.a > 0:
            return Form(*_reduce_positive_definite(f.a, f.b, f.c))
        return neg(Form(*_reduce_positive_definite(-f.a, -f.b, -f.c)))
    N = isqrt(D)
    if N * N == D:
        return _canonical_square(f, D)
    return Form(*_walk(*_reduce_indefinite(f.a, f.b, f.c, D, N), D, N))


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
    return _walk(*_reduce_indefinite(f1.a, f1.b, f1.c, D, N), D, N, stop=r2) is None


@dataclass(frozen=True)
class FormClass:
    """A proper equivalence class, stored by its canonical representative."""

    representative: Form
    disc: int

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
