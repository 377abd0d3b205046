"""Planes in Z^4 ~ M2(Z) and the Klein correspondence.

Z^4 is identified with the 2x2 integer matrices (``forms.Mat2``)
through the fixed basis

    B = (b1, b2, b3, b4) = ([[1,0],[0,0]], [[0,0],[0,1]],
                            [[0,0],[-1,0]], [[0,1],[0,0]])

so that the coordinates of M = [[m11, m12], [m21, m22]] are
(m11, m22, -m21, m12).  With bar the adjugate involution and
j = diag(1, -1), the ambient forms are

    Q(x, y) = tr(x bar(y)),    theta(x, y) = tr(x j bar(y)),

and Q(x, x) = 2 det(x).  An oriented plane (rank-2 direct summand with a
basis ordering) maps to its pair of Klein vectors

    a1 = 2 v1 bar(v2) - tr(v1 bar(v2)) I,
    a2 = 2 bar(v2) v1 - tr(bar(v2) v1) I,

two Gross vectors of determinant -disc(q_L).  Both are linear in the six
Plucker coordinates P_st = x_s y_t - x_t y_s (s < t) of an oriented
basis (x, y), taken in the coordinates of B:

    a1 = [[P01 - P23, -2 P03], [2 P12, P23 - P01]],
    a2 = [[P01 + P23, -2 P13], [2 P02, -P01 - P23]].

The inverse is linear too.  The pair a_i = [[p_i, q_i], [r_i, -p_i]] has

    (P01, P02, P03, P12, P13, P23)
        = ((p1 + p2)/2, r2/2, -q1/2, r1/2, -q2/2, (p2 - p1)/2),

integral for Gross vectors of equal determinant.  Equal determinants are
exactly the Plucker relation P01 P23 - P02 P13 + P03 P12 = 0, and
pair-primitivity makes P primitive, so P is the 2-vector of one oriented
plane: the solution lattice of a1 x = x a2.

Both complements permute P with signs.  Negating a1 swaps P01 and P23
and negates P03 and P12, so L^perp = L_{-a1,a2} has P = (P23, P02, -P03,
-P12, P13, P01), and a symplectic plane (a2.m11 = P01 + P23 = 1) has
L^pperp = (P23, -P02, -P03, -P12, -P13, P01).

``_hermite`` turns a primitive decomposable P into the coordinates of
the canonical basis of its plane: ``compose._plane_basis``, the Bezout
kernel that composition shares, gives h2 and h1 up to a multiple of h2,
and h1 is reduced at h2's pivot.  ``Plane`` reuses the Plucker
coordinates of its summand check, and ``Plane.contains`` tests x ^ P = 0.
``verify_composition_identity`` reads q_L off the coordinates of
``_hermite`` and reduces both sides with ``forms._canonical``, composing
Gauss-reduced factors for D < 0; it builds objects only for the values it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .compose import _compose, _plane_basis
from .errors import (MismatchedDeterminant, NotASummand, NotGross, NotPairPrimitive, NotSymplectic,
                     ZeroDeterminant, ZeroDiscriminant)
from .forms import Form, FormClass, Mat2, _canonical, _require_sl2


# ---------------------------------------------------------------------------
# Gross vectors <-> forms


def is_gross(v: Mat2) -> bool:
    return v.trace() == 0 and v.m12 % 2 == 0 and v.m21 % 2 == 0


def gross(f: Form) -> Mat2:
    """A(q) = [[b, 2a], [-2c, -b]] for q = (a, b, c)."""
    return Mat2(f.b, 2 * f.a, -2 * f.c, -f.b)


def form_of(v: Mat2) -> Form:
    """Inverse of gross: the form with A(q) = v."""
    if not is_gross(v):
        raise NotGross(f"{v} is not traceless with even off-diagonal")
    return Form(v.m12 // 2, v.m11, -v.m21 // 2)


def gross_content(v: Mat2) -> int:
    """Content in the Gross lattice; equals content(form_of(v))."""
    return gcd(v.m11, v.m12 // 2, v.m21 // 2)


# ---------------------------------------------------------------------------
# Planes


def _plucker(v1: Mat2, v2: Mat2) -> tuple[int, int, int, int, int, int]:
    # (P01, P02, P03, P12, P13, P23), the 2x2 minors of the coordinates
    x0, x1, x2, x3 = v1.coords()
    y0, y1, y2, y3 = v2.coords()
    return (x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x0 * y3 - x3 * y0,
            x1 * y2 - x2 * y1, x1 * y3 - x3 * y1, x2 * y3 - x3 * y2)


def _hermite(p01: int, p02: int, p03: int, p12: int, p13: int, p23: int) -> tuple[tuple[int, ...], ...]:
    """The coordinates (h1, h2) of the canonical basis of the plane of P,
    which must be primitive and satisfy the Plucker relation."""
    x0, x1, x2, x3, y1, y2, y3 = _plane_basis(p01, p02, p03, p12, p13, p23)
    top, m = (x1, y1) if y1 else (x2, y2) if y2 else (x3, y3)
    q = (top - top % abs(m)) // m  # h1 reduced into [0, |m|) at h2's pivot
    return (x0, x1 - q * y1, x2 - q * y2, x3 - q * y3), (0, y1, y2, y3)


def _plane_from_plucker(p01: int, p02: int, p03: int, p12: int, p13: int, p23: int) -> "Plane":
    """The canonical Plane of ``_hermite``, without the summand check: P is primitive."""
    (x0, x1, x2, x3), (y0, y1, y2, y3) = _hermite(p01, p02, p03, p12, p13, p23)
    plane = object.__new__(Plane)
    d = plane.__dict__
    d["v1"], d["v2"] = Mat2(x0, x3, -x2, x1), Mat2(y0, y3, -y2, y1)
    return plane


def _q_l(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, int, int]:
    # (det(v1), tr(v1 bar(v2)), det(v2)) of the basis with coordinates x, y
    return (x[0] * x[1] + x[2] * x[3], x[0] * y[1] + x[1] * y[0] + x[2] * y[3] + x[3] * y[2],
            y[0] * y[1] + y[2] * y[3])


@dataclass(frozen=True, init=False)
class Plane:
    """An oriented rank-2 direct summand of Z^4, in canonical form.

    The stored basis is the Hermite basis of the underlying lattice with
    the orientation sign folded into the second vector, so plane equality
    is plain field equality.  Raises NotASummand unless the given basis
    spans a direct summand.
    """

    v1: Mat2
    v2: Mat2

    def __init__(self, v1: Mat2, v2: Mat2) -> None:
        plucker = _plucker(v1, v2)
        g = gcd(*plucker)
        if g == 0:
            raise NotASummand("basis vectors are linearly dependent")
        if g != 1:
            raise NotASummand("basis does not span a direct summand of Z^4")
        (x0, x1, x2, x3), (y0, y1, y2, y3) = _hermite(*plucker)
        d = self.__dict__
        d["v1"], d["v2"] = Mat2(x0, x3, -x2, x1), Mat2(y0, y3, -y2, y1)

    @staticmethod
    def from_basis(v1: Mat2, v2: Mat2) -> "Plane":
        # the same as Plane(v1, v2), kept only because bench/spans.py traces the name
        return Plane(v1, v2)

    def opposite(self) -> "Plane":
        """The same plane with reversed orientation: the plane of -P."""
        return _plane_from_plucker(*(-p for p in _plucker(self.v1, self.v2)))

    def contains(self, x: Mat2) -> bool:
        """x ^ P = 0: a direct summand holds every integer vector of its span."""
        p01, p02, p03, p12, p13, p23 = _plucker(self.v1, self.v2)
        x0, x1, x2, x3 = x.coords()
        return (x0 * p12 - x1 * p02 + x2 * p01 == 0 and x0 * p13 - x1 * p03 + x3 * p01 == 0
                and x0 * p23 - x2 * p03 + x3 * p02 == 0 and x1 * p23 - x2 * p13 + x3 * p12 == 0)


@dataclass(frozen=True, init=False)
class KleinPair:
    """A pair of Gross vectors of equal nonzero determinant."""

    a1: Mat2
    a2: Mat2

    def __init__(self, a1: Mat2, a2: Mat2) -> None:
        d = self.__dict__
        d["a1"], d["a2"] = a1, a2


def q_of_plane(plane: Plane) -> Form:
    """q_L(x, y) = det(v1) x^2 + tr(v1 bar(v2)) xy + det(v2) y^2."""
    return Form(*_q_l(plane.v1.coords(), plane.v2.coords()))


def _nondegenerate_plucker(plane: Plane) -> tuple[int, int, int, int, int, int]:
    """The Plucker coordinates of a plane with disc(q_L) = -det(a1) != 0."""
    p01, p02, p03, p12, p13, p23 = p = _plucker(plane.v1, plane.v2)
    if 4 * p03 * p12 == (p01 - p23) ** 2:
        q_of_plane(plane)  # raises ZeroForm first on a plane with q_L = 0
        raise ZeroDiscriminant("Klein vectors require disc(q_L) != 0")
    return p


def klein_map(plane: Plane) -> KleinPair:
    """Phi: the Klein vectors of an oriented plane with disc(q_L) != 0,
    from its Plucker coordinates; det(a1) = -disc(q_L)."""
    p01, p02, p03, p12, p13, p23 = _nondegenerate_plucker(plane)
    return KleinPair(Mat2(p01 - p23, -2 * p03, 2 * p12, p23 - p01),
                     Mat2(p01 + p23, -2 * p13, 2 * p02, -p01 - p23))


def _pair_plucker(p: KleinPair) -> tuple[int, int, int, int, int, int]:
    """Validate the pair; the Plucker coordinates that it determines linearly."""
    a1, a2 = p.a1, p.a2
    p1, q1, r1, s1, p2, q2, r2, s2 = a1.m11, a1.m12, a1.m21, a1.m22, a2.m11, a2.m12, a2.m21, a2.m22
    if p1 + s1 or p2 + s2 or q1 % 2 or r1 % 2 or q2 % 2 or r2 % 2:
        raise NotGross("Klein vectors must lie in the Gross lattice")
    d1, d2 = p1 * s1 - q1 * r1, p2 * s2 - q2 * r2
    if d1 != d2:
        raise MismatchedDeterminant(f"det(a1) = {d1} != {d2} = det(a2)")
    if d1 == 0:
        raise ZeroDeterminant("Klein vectors must have nonzero determinant")
    if gcd(p1, q1 // 2, r1 // 2, p2, q2 // 2, r2 // 2) != 1:
        raise NotPairPrimitive("a common prime divides both Klein vectors")
    plucker = ((p1 + p2) // 2, r2 // 2, -q1 // 2, r1 // 2, -q2 // 2, (p2 - p1) // 2)
    if gcd(*plucker) != 1:  # P divides p1, p2, q1/2, ..., so pair-primitivity forbids it
        raise AssertionError(f"Plucker coordinates {plucker} of {p} are not primitive")
    return plucker


def klein_inverse(p: KleinPair) -> Plane:
    """Psi: the oriented solution plane of a1 x = x a2, read off its P."""
    return _plane_from_plucker(*_pair_plucker(p))


def transform_plane(plane: Plane, g1: Mat2, g2: Mat2) -> Plane:
    """The (g1, g2)-action x -> g1 x g2^-1 on the plane (g_i in SL2(Z)).

    Raises NotUnimodular unless det(g1) == det(g2) == 1.
    """
    _require_sl2(g1)
    _require_sl2(g2)
    return Plane(g1 @ plane.v1 @ g2.bar(), g1 @ plane.v2 @ g2.bar())


def orth_complement(plane: Plane) -> Plane:
    """L^perp, oriented by (L_{a1,a2})^perp = L_{-a1,a2}."""
    p01, p02, p03, p12, p13, p23 = _nondegenerate_plucker(plane)
    return _plane_from_plucker(p23, p02, -p03, -p12, p13, p01)


def is_symplectic(plane: Plane) -> bool:
    """True iff a2(L) has diagonal (1, -1), iff theta(v1, v2) = 1."""
    p01, _, _, _, _, p23 = _nondegenerate_plucker(plane)
    return p01 + p23 == 1


def symplectic_complement(plane: Plane) -> Plane:
    """L^pperp via Phi(L^pperp) = (-a1, [[1, -alpha], [-gamma, -1]])."""
    p01, p02, p03, p12, p13, p23 = _nondegenerate_plucker(plane)
    if p01 + p23 != 1:
        raise NotSymplectic("symplectic complement requires a symplectic plane")
    return _plane_from_plucker(p23, -p02, -p03, -p12, -p13, p01)


def verify_composition_identity(p: KleinPair) -> tuple[FormClass, FormClass, bool]:
    """The composition identity of the Klein correspondence: [q_L] of the
    plane L = Psi(a1, a2) equals bar[q_a1] * [q_a2].

    Returns the class of q_L (read off the Hermite basis of L), the class
    of the composite, and a flag that both are equal and that
    content(q_L) == content(a1) * content(a2).  For D < 0 the factors are
    Gauss-reduced before they are composed, so the composite stays small;
    for D > 0 they are composed as given, as reducing them would cost two
    cycle walks.
    """
    a, b, c = _q_l(*_hermite(*_pair_plucker(p)))
    dl = b * b - 4 * a * c
    a1, a2 = p.a1, p.a2
    d = a1.m11 * a1.m11 + a1.m12 * a1.m21  # disc(q_a1) = -det(a1)
    via_plane = _canonical(a, b, c, dl)
    t1, t2 = (a1.m12 // 2, -a1.m11, -a1.m21 // 2), (a2.m12 // 2, a2.m11, -a2.m21 // 2)
    if d < 0:
        t1, t2 = _canonical(*t1, d), _canonical(*t2, d)
    via_compose = _canonical(*_compose(*t1, *t2, d), d)
    ok = (via_plane, dl) == (via_compose, d) and gcd(a, b, c) == gross_content(a1) * gross_content(a2)
    return FormClass(Form(*via_plane), dl), FormClass(Form(*via_compose), d), ok


# ---------------------------------------------------------------------------
# JSON wire formats


def plane_to_dict(plane: Plane) -> dict:
    return {"basis": [list(plane.v1.coords()), list(plane.v2.coords())]}


def pair_to_dict(p: KleinPair) -> dict:
    return {"a1": [list(r) for r in p.a1.rows()], "a2": [list(r) for r in p.a2.rows()]}
