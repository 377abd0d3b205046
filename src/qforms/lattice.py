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

two Gross vectors of determinant -disc(q_L).  The inverse sends a pair
(a1, a2) of equal nonzero determinant to the solution lattice of
a1 x = x a2, computed by an exact integer kernel; its orientation is the
one carried by (a1 g, g) for g in the plane with det(g) > 0, or by
(g, a1 g) when only det(g) < 0 is available.

The kernel, and the canonical basis of a plane, come from a row Hermite
normal form that clears each entry below a pivot with a single 2x2
extended-gcd step on the pair (pivot row, that row), so a column costs
one gcd per row and not one row update per Euclid quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import compose
from .errors import (
    MismatchedDeterminant,
    NotASummand,
    NotGross,
    NotPairPrimitive,
    NotSymplectic,
    ZeroDeterminant,
    ZeroDiscriminant,
)
from .forms import Form, FormClass, Mat2, bar as form_bar, content, discriminant, _require_sl2


MAT_J = Mat2(1, 0, 0, -1)


def quad_q(x: Mat2, y: Mat2) -> int:
    """The symmetric bilinear form Q(x, y) = tr(x bar(y))."""
    return (x @ y.bar()).trace()


def sympl_theta(x: Mat2, y: Mat2) -> int:
    """The symplectic form theta(x, y) = tr(x j bar(y))."""
    return (x @ MAT_J @ y.bar()).trace()


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
    return gcd(gcd(abs(v.m11), abs(v.m12 // 2)), abs(v.m21 // 2))


def pair_primitive(a1: Mat2, a2: Mat2) -> bool:
    """No prime divides both vectors inside the Gross lattice."""
    if not (is_gross(a1) and is_gross(a2)):
        raise NotGross("pair-primitivity is defined inside the Gross lattice")
    return gcd(gross_content(a1), gross_content(a2)) == 1


# ---------------------------------------------------------------------------
# Exact integer linear algebra (row HNF with transformation)


def _row_hnf(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """(H, U, det_U) with U unimodular, U @ mat = H in row Hermite form.

    Each column is cleared below its pivot row r by one extended-gcd step
    per nonzero row i: with g = gcd(h_rj, h_ij), a = h_rj / g, b = h_ij / g
    and any x, y with x a + y b = 1 (x = a^-1 mod |b|), the pair
    (row r, row i) becomes (x row r + y row i, a row i - b row r), a 2x2
    step of determinant 1.  Pivots are positive, entries above a pivot
    are reduced into [0, pivot); zero rows sink to the bottom.  det_U is
    +-1.
    """
    h = [row[:] for row in mat]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    det_u = 1
    r = 0
    for j in range(n):
        if r == m:
            break
        i0 = next((i for i in range(r, m) if h[i][j] != 0), None)
        if i0 is None:
            continue
        if i0 != r:
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            det_u = -det_u
        for i in range(r + 1, m):
            if h[i][j] != 0:
                g = gcd(h[r][j], h[i][j])
                a, b = h[r][j] // g, h[i][j] // g
                x = pow(a, -1, abs(b))  # 0 when b = +-1
                y = (1 - x * a) // b
                hr, hi, ur, ui = h[r], h[i], u[r], u[i]
                h[r] = [x * s + y * t for s, t in zip(hr, hi)]
                h[i] = [a * t - b * s for s, t in zip(hr, hi)]
                u[r] = [x * s + y * t for s, t in zip(ur, ui)]
                u[i] = [a * t - b * s for s, t in zip(ur, ui)]
        if h[r][j] < 0:
            h[r] = [-v for v in h[r]]
            u[r] = [-v for v in u[r]]
            det_u = -det_u
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [h[i][k] - q * h[r][k] for k in range(n)]
                u[i] = [u[i][k] - q * u[r][k] for k in range(m)]
        r += 1
    return h, u, det_u


def _kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {v : M v = 0} of the matrix M.

    M is given by its rows.  A kernel is automatically saturated, so the
    result spans a direct summand.
    """
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    h, u, _ = _row_hnf(transposed)
    return [u[i] for i in range(len(h)) if all(v == 0 for v in h[i])]


# ---------------------------------------------------------------------------
# Planes


@dataclass(frozen=True)
class Plane:
    """An oriented rank-2 direct summand of Z^4, in canonical form.

    The stored basis is the Hermite basis of the underlying lattice with
    the orientation sign folded into the second vector, so plane equality
    is plain field equality.
    """

    v1: Mat2
    v2: Mat2

    @staticmethod
    def from_basis(v1: Mat2, v2: Mat2) -> "Plane":
        rows = [list(v1.coords()), list(v2.coords())]
        minors = []
        for j in range(4):
            for k in range(j + 1, 4):
                minors.append(rows[0][j] * rows[1][k] - rows[0][k] * rows[1][j])
        g = 0
        for v in minors:
            g = gcd(g, v)
        if g == 0:
            raise NotASummand("basis vectors are linearly dependent")
        if g != 1:
            raise NotASummand("basis does not span a direct summand of Z^4")
        h, _, det_u = _row_hnf(rows)
        b1 = Mat2.from_coords(*h[0])
        b2 = Mat2.from_coords(*h[1])
        if det_u < 0:
            b2 = -b2
        return Plane(b1, b2)

    def basis(self) -> tuple[Mat2, Mat2]:
        return (self.v1, self.v2)

    def opposite(self) -> "Plane":
        """The same plane with reversed orientation."""
        return Plane.from_basis(self.v2, self.v1)

    def contains(self, x: Mat2) -> bool:
        rows = [list(self.v1.coords()), list(self.v2.coords()), list(x.coords())]
        h, _, _ = _row_hnf(rows)
        return all(v == 0 for v in h[2])


@dataclass(frozen=True)
class KleinPair:
    """A pair of Gross vectors of equal nonzero determinant."""

    a1: Mat2
    a2: Mat2


def q_of_plane(plane: Plane) -> Form:
    """q_L(x, y) = det(v1) x^2 + tr(v1 bar(v2)) xy + det(v2) y^2."""
    v1, v2 = plane.basis()
    return Form(v1.det(), (v1 @ v2.bar()).trace(), v2.det())


def klein_map(plane: Plane) -> KleinPair:
    """Phi: the Klein vectors of an oriented plane with disc(q_L) != 0."""
    if discriminant(q_of_plane(plane)) == 0:
        raise ZeroDiscriminant("Klein vectors require disc(q_L) != 0")
    v1, v2 = plane.basis()
    t = (v1 @ v2.bar()).trace()
    a1 = (v1 @ v2.bar()).scale(2) - Mat2.identity().scale(t)
    a2 = (v2.bar() @ v1).scale(2) - Mat2.identity().scale(t)
    return KleinPair(a1, a2)


def _validate_pair(p: KleinPair) -> None:
    if not (is_gross(p.a1) and is_gross(p.a2)):
        raise NotGross("Klein vectors must lie in the Gross lattice")
    d1, d2 = p.a1.det(), p.a2.det()
    if d1 != d2:
        raise MismatchedDeterminant(f"det(a1) = {d1} != {d2} = det(a2)")
    if d1 == 0:
        raise ZeroDeterminant("Klein vectors must have nonzero determinant")
    if not pair_primitive(p.a1, p.a2):
        raise NotPairPrimitive("a common prime divides both Klein vectors")


def _map_matrix(a1: Mat2, a2: Mat2) -> list[list[int]]:
    """The matrix of x -> a1 x - x a2 on Z^4, for traceless a1 and a2.

    Row i holds the i-th coordinate of the image as a function of the
    coordinates (m11, m22, -m21, m12) of x.
    """
    (p1, q1), (r1, _) = a1.rows()
    (p2, q2), (r2, _) = a2.rows()
    return [[p1 - p2, 0, -q1, -r2],
            [0, p2 - p1, q2, r1],
            [-r1, r2, -p1 - p2, 0],
            [-q2, q1, 0, p1 + p2]]


def klein_inverse(p: KleinPair) -> Plane:
    """Psi: the oriented solution plane of a1 x = x a2.

    The kernel of x -> a1 x - x a2 is computed exactly; being a kernel it
    is a direct summand.  The orientation follows the (a1 g, g) rule.
    """
    _validate_pair(p)
    kern = _kernel_basis(_map_matrix(p.a1, p.a2))
    if len(kern) != 2:
        raise ZeroDeterminant(f"solution lattice has rank {len(kern)}, expected 2")
    w1 = Mat2.from_coords(*kern[0])
    w2 = Mat2.from_coords(*kern[1])
    g = next(c for c in (w1, w2, w1 + w2) if c.det() != 0)
    ref = (p.a1 @ g, g) if g.det() > 0 else (g, p.a1 @ g)
    sign = _orientation_sign((w1, w2), ref)
    if sign < 0:
        w2 = -w2
    return Plane.from_basis(w1, w2)


def _orientation_sign(basis: tuple[Mat2, Mat2], ref: tuple[Mat2, Mat2]) -> int:
    # ref = C @ basis over Q; every 2x2 minor of the coordinate matrices
    # scales by det(C), so one nonzero minor pair gives the sign.
    wrows = [basis[0].coords(), basis[1].coords()]
    rrows = [ref[0].coords(), ref[1].coords()]
    for j in range(4):
        for k in range(j + 1, 4):
            mw = wrows[0][j] * wrows[1][k] - wrows[0][k] * wrows[1][j]
            if mw != 0:
                mr = rrows[0][j] * rrows[1][k] - rrows[0][k] * rrows[1][j]
                if mr == 0:  # ref spans the same plane with det(C) != 0
                    raise AssertionError(f"{ref} does not span the plane of {basis}")
                s = (mr > 0) - (mr < 0)
                return s * ((mw > 0) - (mw < 0))
    raise ZeroDeterminant("degenerate basis")


def transform_plane(plane: Plane, g1: Mat2, g2: Mat2) -> Plane:
    """The (g1, g2)-action x -> g1 x g2^-1 on the plane (g_i in SL2(Z)).

    Raises NotUnimodular unless det(g1) == det(g2) == 1.
    """
    _require_sl2(g1)
    _require_sl2(g2)
    g2inv = g2.bar()
    v1, v2 = plane.basis()
    return Plane.from_basis(g1 @ v1 @ g2inv, g1 @ v2 @ g2inv)


def orth_complement(plane: Plane) -> Plane:
    """L^perp, oriented by (L_{a1,a2})^perp = L_{-a1,a2}."""
    p = klein_map(plane)
    return klein_inverse(KleinPair(-p.a1, p.a2))


def is_symplectic(plane: Plane) -> bool:
    """True iff a2(L) has diagonal (1, -1), iff theta(v1, v2) = 1."""
    p = klein_map(plane)
    return p.a2.m11 == 1


def symplectic_basis(plane: Plane) -> tuple[Mat2, Mat2]:
    """An oriented basis with theta(v1, v2) = 1 (the stored one works)."""
    if not is_symplectic(plane):
        raise NotSymplectic("plane admits no symplectic basis")
    v1, v2 = plane.basis()
    if sympl_theta(v1, v2) != 1:
        raise AssertionError(f"stored basis of {plane} is not symplectic")
    return (v1, v2)


def symplectic_complement(plane: Plane) -> Plane:
    """L^pperp via Phi(L^pperp) = (-a1, [[1, -alpha], [-gamma, -1]])."""
    p = klein_map(plane)
    if p.a2.m11 != 1:
        raise NotSymplectic("symplectic complement requires a symplectic plane")
    flipped = Mat2(1, -p.a2.m12, -p.a2.m21, -1)
    return klein_inverse(KleinPair(-p.a1, flipped))


def verify_composition_identity(p: KleinPair) -> tuple[FormClass, FormClass, bool]:
    """Compute [q_L] two ways: from the plane, and as bar[q_a1] * [q_a2].

    Returns both classes and a flag that also requires
    content(q_L) == content(a1) * content(a2).
    """
    _validate_pair(p)
    plane = klein_inverse(p)
    ql = q_of_plane(plane)
    via_plane = FormClass.of(ql)
    q1, q2 = form_of(p.a1), form_of(p.a2)
    via_compose = FormClass.of(compose.dirichlet_compose(form_bar(q1), q2))
    ok = via_plane == via_compose and content(ql) == content(q1) * content(q2)
    return via_plane, via_compose, ok


# ---------------------------------------------------------------------------
# JSON wire formats


def plane_to_dict(plane: Plane) -> dict:
    return {"basis": [list(plane.v1.coords()), list(plane.v2.coords())]}


def plane_from_dict(doc: dict) -> Plane:
    b1, b2 = doc["basis"]
    return Plane.from_basis(Mat2.from_coords(*b1), Mat2.from_coords(*b2))


def pair_to_dict(p: KleinPair) -> dict:
    return {"a1": [list(r) for r in p.a1.rows()], "a2": [list(r) for r in p.a2.rows()]}


def pair_from_dict(doc: dict) -> KleinPair:
    return KleinPair(Mat2.from_rows(doc["a1"]), Mat2.from_rows(doc["a2"]))
